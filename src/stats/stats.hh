/**
 * @file
 * Number formatting for the paper-style report tables.
 */

#ifndef FSIM_STATS_STATS_HH
#define FSIM_STATS_STATS_HH

#include <string>

namespace fsim
{

/** Render a count with the paper's K/M suffix convention (e.g.\ 26.4M). */
std::string formatCount(double v);

/** Render a percentage with one decimal (e.g.\ "24.2%"). */
std::string formatPercent(double fraction);

} // namespace fsim

#endif // FSIM_STATS_STATS_HH
