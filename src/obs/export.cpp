#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tmo::obs
{

namespace
{

/** Minimal JSON string escape (exported names are plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** Event-type name by index, for the parser. */
TraceEventType
typeFromName(const std::string &name)
{
    for (std::size_t i = 0; i < NUM_TRACE_EVENT_TYPES; ++i) {
        const auto t = static_cast<TraceEventType>(i);
        if (name == traceEventTypeName(t))
            return t;
    }
    throw std::runtime_error("trace: unknown event type '" + name +
                             "'");
}

/** Cursor over one JSONL line; the format is our own, so the parser
 *  only accepts the exact field order the writer emits. */
class LineParser
{
  public:
    explicit LineParser(const std::string &line) : line_(line) {}

    void
    expect(const std::string &token)
    {
        if (line_.compare(pos_, token.size(), token) != 0)
            fail("expected '" + token + "'");
        pos_ += token.size();
    }

    std::string
    quotedString()
    {
        expect("\"");
        std::string out;
        while (pos_ < line_.size() && line_[pos_] != '"') {
            if (line_[pos_] == '\\')
                ++pos_;
            if (pos_ < line_.size())
                out.push_back(line_[pos_++]);
        }
        expect("\"");
        return out;
    }

    double
    number()
    {
        const char *start = line_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            fail("expected a number");
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    bool
    peek(char c) const
    {
        return pos_ < line_.size() && line_[pos_] == c;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("trace: malformed JSONL at column " +
                                 std::to_string(pos_) + ": " + what +
                                 " in: " + line_);
    }

    const std::string &line_;
    std::size_t pos_ = 0;
};

void
writeEventJson(std::ostream &out, const std::string &host,
               const TraceEvent &e)
{
    out << "{\"host\":\"" << jsonEscape(host) << "\",\"t\":" << e.time
        << ",\"seq\":" << e.seq << ",\"type\":\""
        << traceEventTypeName(e.type)
        << "\",\"code\":" << static_cast<unsigned>(e.code)
        << ",\"domain\":" << e.domain << ",\"args\":[";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i)
            out << ',';
        out << formatDouble(e.args[i]);
    }
    out << "]}\n";
}

} // namespace

void
checkWritable(const std::string &what, const std::string &path)
{
    std::error_code error;
    const bool existed = std::filesystem::exists(path, error);
    // Append mode opens for writing without truncating.
    const bool opened = std::ofstream(path, std::ios::app).is_open();
    if (!opened)
        throw std::invalid_argument(what + ": cannot open " + path);
    if (!existed)
        std::filesystem::remove(path, error);
}

std::string
formatDouble(double value)
{
    // Shortest representation that round-trips exactly: try
    // increasing precision. snprintf with "%.Ng" is locale-proof for
    // the "C" numeric locale the simulator never changes.
    char buf[40];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

void
writeTraceJsonl(std::ostream &out, const std::vector<HostTrace> &hosts)
{
    for (const auto &[name, ring] : hosts) {
        if (!ring)
            continue;
        for (const auto &e : ring->snapshot())
            writeEventJson(out, name, e);
    }
}

std::vector<ParsedHostTrace>
readTraceJsonl(std::istream &in)
{
    std::vector<ParsedHostTrace> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        LineParser p(line);
        TraceEvent e;
        p.expect("{\"host\":");
        const std::string host = p.quotedString();
        p.expect(",\"t\":");
        e.time = static_cast<sim::SimTime>(p.number());
        p.expect(",\"seq\":");
        e.seq = static_cast<std::uint64_t>(p.number());
        p.expect(",\"type\":");
        e.type = typeFromName(p.quotedString());
        p.expect(",\"code\":");
        e.code = static_cast<std::uint8_t>(p.number());
        p.expect(",\"domain\":");
        e.domain = static_cast<std::uint16_t>(p.number());
        p.expect(",\"args\":[");
        for (std::size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                p.expect(",");
            e.args[i] = p.number();
        }
        p.expect("]}");
        if (out.empty() || out.back().host != host) {
            out.push_back(ParsedHostTrace{host, {}});
        }
        out.back().events.push_back(e);
    }
    return out;
}

void
writeTraceCsv(std::ostream &out, const std::vector<HostTrace> &hosts)
{
    out << "host,time_ns,seq,type,code,domain";
    for (std::size_t i = 0; i < 8; ++i)
        out << ",a" << i;
    out << '\n';
    for (const auto &[name, ring] : hosts) {
        if (!ring)
            continue;
        for (const auto &e : ring->snapshot()) {
            out << name << ',' << e.time << ',' << e.seq << ','
                << traceEventTypeName(e.type) << ','
                << static_cast<unsigned>(e.code) << ',' << e.domain;
            for (const double a : e.args)
                out << ',' << formatDouble(a);
            out << '\n';
        }
    }
}

void
writeTraceChrome(std::ostream &out, const std::vector<HostTrace> &hosts)
{
    out << "{\"traceEvents\":[\n";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };

    // Track metadata: one process per host, one named thread per
    // event type — host-prefixed tracks in the merged fleet view.
    for (std::size_t pid = 0; pid < hosts.size(); ++pid) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":" << pid
            << ",\"name\":\"process_name\",\"args\":{\"name\":\""
            << jsonEscape(hosts[pid].first) << "\"}}";
        for (std::size_t tid = 0; tid < NUM_TRACE_EVENT_TYPES; ++tid) {
            sep();
            out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                << traceEventTypeName(static_cast<TraceEventType>(tid))
                << "\"}}";
        }
    }

    for (std::size_t pid = 0; pid < hosts.size(); ++pid) {
        const TraceRing *ring = hosts[pid].second;
        if (!ring)
            continue;
        for (const auto &e : ring->snapshot()) {
            const auto tid = static_cast<std::size_t>(e.type);
            // Chrome timestamps are microseconds.
            char ts[40];
            std::snprintf(ts, sizeof ts, "%.3f",
                          static_cast<double>(e.time) / 1000.0);
            sep();
            out << "{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"ts\":" << ts << ",\"s\":\"t\",\"name\":\""
                << traceEventTypeName(e.type)
                << "\",\"args\":{\"code\":"
                << static_cast<unsigned>(e.code)
                << ",\"domain\":" << e.domain;
            for (std::size_t i = 0; i < e.args.size(); ++i)
                out << ",\"a" << i << "\":" << formatDouble(e.args[i]);
            out << "}}";
            // Counter tracks turn Senpai ticks into plottable
            // timelines (pressure + final reclaim step).
            if (e.type == TraceEventType::SENPAI_TICK) {
                sep();
                out << "{\"ph\":\"C\",\"pid\":" << pid
                    << ",\"ts\":" << ts
                    << ",\"name\":\"senpai.cg" << e.domain
                    << "\",\"args\":{\"pressure\":"
                    << formatDouble(e.args[0]) << ",\"reclaim_bytes\":"
                    << formatDouble(e.args[7]) << "}}";
            }
        }
    }
    out << "\n]}\n";
}

void
writeTraceFile(const std::string &path,
               const std::vector<HostTrace> &hosts)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("trace: cannot open " + path);
    if (path.size() >= 6 &&
        path.compare(path.size() - 6, 6, ".jsonl") == 0)
        writeTraceJsonl(out, hosts);
    else if (path.size() >= 4 &&
             path.compare(path.size() - 4, 4, ".csv") == 0)
        writeTraceCsv(out, hosts);
    else
        writeTraceChrome(out, hosts);
}

void
writeMetricsCsv(std::ostream &out,
                const std::vector<const stats::TimeSeries *> &series)
{
    if (series.empty())
        return;
    out << "time_s";
    std::size_t rows = 0;
    for (const auto *ts : series) {
        out << ',' << ts->name();
        rows = std::max(rows, ts->size());
    }
    out << '\n';
    for (std::size_t row = 0; row < rows; ++row) {
        // All samplers stamp aligned timestamps; take the row's time
        // from the first series that has this row.
        sim::SimTime t = 0;
        for (const auto *ts : series)
            if (row < ts->size()) {
                t = ts->samples()[row].time;
                break;
            }
        out << formatDouble(sim::toSeconds(t));
        for (const auto *ts : series) {
            out << ',';
            if (row < ts->size())
                out << formatDouble(ts->samples()[row].value);
        }
        out << '\n';
    }
}

void
writeMetricsJsonl(std::ostream &out,
                  const std::vector<const stats::TimeSeries *> &series)
{
    for (const auto *ts : series)
        for (const auto &sample : ts->samples())
            out << "{\"t\":" << sample.time << ",\"name\":\""
                << jsonEscape(ts->name())
                << "\",\"value\":" << formatDouble(sample.value)
                << "}\n";
}

void
writeMetricsFile(const std::string &path,
                 const std::vector<const stats::TimeSeries *> &series)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("metrics: cannot open " + path);
    if (path.size() >= 6 &&
        path.compare(path.size() - 6, 6, ".jsonl") == 0)
        writeMetricsJsonl(out, series);
    else
        writeMetricsCsv(out, series);
}

} // namespace tmo::obs
