#include "trace/tracer.hh"

namespace fsim
{

Tracer::Tracer(int n_cores) : phases_(n_cores) {}

void
Tracer::resetQueueDepths(Tick origin)
{
    for (DepthSeries &q : queues_)
        q.reset(origin);
}

} // namespace fsim
