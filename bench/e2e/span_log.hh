/**
 * @file
 * Benchmark-side spans: every call the benchmark makes into the
 * simulator is wrapped in a named span (start, end, parent), kept in
 * memory and written out once at exit. A span's self time is its
 * duration minus the time covered by its direct children.
 */

#ifndef FSIM_BENCH_E2E_SPAN_LOG_HH
#define FSIM_BENCH_E2E_SPAN_LOG_HH

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/json_writer.hh"

namespace fsim
{

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string pass;   //!< simulator run: "untraced", "recorded", ...
        double start = 0.0; //!< seconds since the log was created
        double end = 0.0;
        int parent = -1;    //!< index of the enclosing span, -1 = root
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name) : log_(log)
        {
            index_ = static_cast<int>(log_.spans_.size());
            Span s;
            s.name = name;
            s.pass = log_.pass_;
            s.start = log_.now();
            s.parent = log_.open_.empty() ? -1 : log_.open_.back();
            log_.spans_.push_back(std::move(s));
            log_.open_.push_back(index_);
        }
        ~Scope()
        {
            log_.spans_[index_].end = log_.now();
            log_.open_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened. */
        double elapsed() const
        {
            return log_.now() - log_.spans_[index_].start;
        }

      private:
        SpanLog &log_;
        int index_ = 0;
    };

    explicit SpanLog(std::string workload)
        : workload_(std::move(workload)),
          t0_(std::chrono::steady_clock::now())
    {
    }

    /** Tag spans opened from now on with @p pass. */
    void setPass(std::string pass) { pass_ = std::move(pass); }

    /** Self seconds summed per span name, for spans of @p pass. */
    std::map<std::string, double>
    selfSeconds(const std::string &pass) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].pass == pass)
                out[spans_[i].name] +=
                    spans_[i].end - spans_[i].start - child[i];
        return out;
    }

    /** {"workload": ..., "spans": [{name, pass, start, end, parent}]}. */
    std::string
    json() const
    {
        JsonWriter w;
        w.beginObject();
        w.key("workload").value(workload_);
        w.key("spans").beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.key("name").value(s.name);
            w.key("pass").value(s.pass);
            w.key("start").value(s.start);
            w.key("end").value(s.end);
            w.key("parent").value(s.parent);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    std::string workload_;
    std::string pass_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace fsim

#endif // FSIM_BENCH_E2E_SPAN_LOG_HH
