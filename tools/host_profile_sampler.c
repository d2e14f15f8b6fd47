/*
 * SIGPROF leaf-PC sampler, preloaded into a bench by host_profile.py.
 *
 * With HOST_PROFILE_OUT set, a constructor arms ITIMER_PROF (every
 * HOST_PROFILE_USEC microseconds of process CPU time, default 1000) and
 * the handler records the interrupted PC. At exit each PC is written as
 * one "pc load-base object-path" line (hex, hex, text), resolved with
 * dladdr.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)

static uintptr_t pcs[MAX_SAMPLES];
static volatile sig_atomic_t nsamples;

static void
onProf(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
#if defined(__x86_64__)
    const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "host_profile_sampler: unsupported architecture"
#endif
    if ((unsigned)nsamples < MAX_SAMPLES)
        pcs[nsamples++] = pc;
}

__attribute__((constructor)) static void
start(void)
{
    if (!getenv("HOST_PROFILE_OUT"))
        return;
    const char *usec = getenv("HOST_PROFILE_USEC");
    const long period = usec ? atol(usec) : 1000;
    struct sigaction sa = {0};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, period}, {0, period}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
dump(void)
{
    const char *path = getenv("HOST_PROFILE_OUT");
    if (!path)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    for (unsigned i = 0; i < (unsigned)nsamples; ++i) {
        Dl_info di;
        if (dladdr((void *)pcs[i], &di) && di.dli_fname)
            fprintf(f, "%lx %lx %s\n", (unsigned long)pcs[i],
                    (unsigned long)di.dli_fbase,
                    di.dli_fname[0] ? di.dli_fname : "-");
        else
            fprintf(f, "%lx 0 ?\n", (unsigned long)pcs[i]);
    }
    fclose(f);
}
