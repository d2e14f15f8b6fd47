/**
 * @file
 * Error reporting, following the gem5 fatal/panic distinction.
 *
 * panic() - an internal simulator bug; never the user's fault. Aborts.
 * fatal() - the simulation cannot continue because of user input
 *           (bad configuration, invalid arguments). Exits with code 1.
 */

#ifndef FSIM_SIM_LOGGING_HH
#define FSIM_SIM_LOGGING_HH

#include <cstdarg>

namespace fsim
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Abort with a message: an internal invariant was violated. */
#define fsim_panic(...) \
    ::fsim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Exit with a message: the user asked for something impossible. */
#define fsim_fatal(...) \
    ::fsim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Simulation-invariant assertion that is kept in release builds. */
#define fsim_assert(cond) \
    do { \
        if (!(cond)) \
            fsim_panic("assertion failed: %s", #cond); \
    } while (0)

} // namespace fsim

#endif // FSIM_SIM_LOGGING_HH
