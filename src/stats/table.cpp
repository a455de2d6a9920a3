#include "stats/table.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace tmo::stats
{

Table::Table(std::string title)
    : title_(std::move(title))
{}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    if (!header_.empty() && row.size() != header_.size())
        throw std::invalid_argument("Table::addRow: column count mismatch");
    rows_.push_back(std::move(row));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << cells[c];
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (auto w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                os << ",";
            os << cells[c];
        }
        os << "\n";
    };
    if (!header_.empty())
        emit(header_);
    for (const auto &row : rows_)
        emit(row);
}

std::string
fmt(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

std::string
fmtPercent(double fraction, int precision)
{
    return fmt(fraction * 100.0, precision) + "%";
}

std::string
fmtQuantile(const std::vector<double> &values, double q, int precision)
{
    if (values.empty())
        return "no data";
    return fmt(exactQuantile(values, q), precision);
}

std::string
fmtQuantilePercent(const std::vector<double> &values, double q,
                   int precision)
{
    if (values.empty())
        return "no data";
    return fmtPercent(exactQuantile(values, q), precision);
}

std::string
fmtBytes(double bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int u = 0;
    while (bytes >= 1024.0 && u < 4) {
        bytes /= 1024.0;
        ++u;
    }
    return fmt(bytes, bytes < 10 ? 2 : 1) + " " + units[u];
}

std::string
fmtExact(double value)
{
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    return std::string(buf, end);
}

void
printSeries(std::ostream &os,
            const std::vector<const TimeSeries *> &series, int precision)
{
    if (series.empty())
        return;
    os << "time_s";
    for (const auto *s : series)
        os << "," << s->name();
    os << "\n";
    const std::size_t n = series.front()->size();
    for (std::size_t i = 0; i < n; ++i) {
        os << fmt(sim::toSeconds(series.front()->samples()[i].time), 1);
        for (const auto *s : series) {
            os << ",";
            if (i < s->size())
                os << fmt(s->samples()[i].value, precision);
        }
        os << "\n";
    }
}

} // namespace tmo::stats
