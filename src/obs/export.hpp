/**
 * @file
 * Trace and metric exporters: JSONL, CSV, and Chrome trace-event
 * JSON (loadable in Perfetto / chrome://tracing).
 *
 * All formatting is locale-independent and uses round-trip-exact
 * double formatting, so exported files are byte-identical whenever
 * the underlying traces are — the property the bit-identity tests
 * pin across serial and `--jobs N` runs.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "stats/timeseries.hpp"

namespace tmo::obs
{

/** A named per-host trace, e.g. {"host0", &ring}. */
using HostTrace = std::pair<std::string, const TraceRing *>;

/** A host's trace snapshot after JSONL parsing. */
struct ParsedHostTrace {
    std::string host;
    std::vector<TraceEvent> events;
};

/**
 * One JSON object per line:
 * {"host":"host0","t":0,"seq":0,"type":"senpai_tick","code":0,
 *  "domain":1,"args":[...]}.
 * Hosts appear in the given order; events oldest first.
 */
void writeTraceJsonl(std::ostream &out,
                     const std::vector<HostTrace> &hosts);

/** Parse writeTraceJsonl output (round-trip inverse). Lines that are
 *  empty are skipped; malformed lines throw std::runtime_error. */
std::vector<ParsedHostTrace> readTraceJsonl(std::istream &in);

/** Flat CSV: host,time_ns,seq,type,code,domain,a0..a7. */
void writeTraceCsv(std::ostream &out,
                   const std::vector<HostTrace> &hosts);

/**
 * Chrome trace-event format: one process per host (pid = index,
 * process_name = host name) and one named thread track per event
 * type, so a merged fleet trace keeps per-host tracks separated.
 * Senpai ticks additionally emit counter tracks (pressure, reclaim)
 * for timeline plotting.
 */
void writeTraceChrome(std::ostream &out,
                      const std::vector<HostTrace> &hosts);

/** Write a trace to @p path, choosing the format by extension:
 *  .jsonl -> JSONL, .csv -> CSV, anything else -> Chrome JSON.
 *  Throws std::runtime_error when the file cannot be opened. */
void writeTraceFile(const std::string &path,
                    const std::vector<HostTrace> &hosts);

/**
 * Metric series as CSV: time_s,<name>,... — one column per series,
 * rows joined on sample index (samplers emit aligned timestamps).
 */
void writeMetricsCsv(std::ostream &out,
                     const std::vector<const stats::TimeSeries *> &series);

/** One {"t":...,"name":...,"value":...} JSON object per sample. */
void writeMetricsJsonl(std::ostream &out,
                       const std::vector<const stats::TimeSeries *> &series);

/** Write metrics to @p path: .jsonl -> JSONL, else CSV. Throws
 *  std::runtime_error when the file cannot be opened. */
void writeMetricsFile(const std::string &path,
                      const std::vector<const stats::TimeSeries *> &series);

/**
 * Check that @p path can be opened for writing, so that a command line
 * can refuse an output path before a run instead of after it. An
 * existing file keeps its contents, and a missing one is not left
 * behind.
 *
 * @param what The writer's name in its error: "trace" or "metrics".
 * @throws std::invalid_argument "<what>: cannot open <path>", the
 *         message the writer gives when it cannot open the file.
 */
void checkWritable(const std::string &what, const std::string &path);

/** Round-trip-exact, locale-independent double formatting used by
 *  every exporter. */
std::string formatDouble(double value);

} // namespace tmo::obs
