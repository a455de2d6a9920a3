/**
 * @file
 * Console table and CSV output helpers for benches and examples.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/timeseries.hpp"

namespace tmo::stats
{

/**
 * Simple fixed-width console table: set headers, push rows of
 * stringified cells, print. Used by the figure/table benches so their
 * output matches the paper's row/series structure.
 */
class Table
{
  public:
    explicit Table(std::string title = "");

    /** Set the column headers (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append one row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Render to a stream with aligned columns. */
    void print(std::ostream &os) const;

    /** Render as CSV (header + rows). */
    void printCsv(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given precision. */
std::string fmt(double value, int precision = 2);

/** Format a fraction as a percentage string, e.g. 0.123 -> "12.3%". */
std::string fmtPercent(double fraction, int precision = 1);

/** Format a byte count with binary units, e.g. "1.5 GiB". */
std::string fmtBytes(double bytes);

/** The shortest decimal that reads back (std::stod) as exactly
 *  @p value, e.g. 0.1 -> "0.1", 1e21 -> "1e+21". Spec printers use it
 *  so that their output parses back to the same spec. */
std::string fmtExact(double value);

/**
 * Format the @p q quantile of @p values, or "no data" when the value
 * set is empty — e.g. after every host of a fleet failed,
 * Fleet::collect returns nothing and a report cell must say so
 * instead of pretending the quantile is 0. Non-empty sets use
 * exactQuantile's closest-rank interpolation: one value answers every
 * q with itself, two values interpolate linearly between them.
 */
std::string fmtQuantile(const std::vector<double> &values, double q,
                        int precision = 2);

/** fmtQuantile with the percent formatting of fmtPercent. */
std::string fmtQuantilePercent(const std::vector<double> &values,
                               double q, int precision = 1);

/**
 * Print several aligned time series as columns:
 * time_s, series[0], series[1], ... one row per sample of the first
 * series (others are matched by index).
 */
void printSeries(std::ostream &os,
                 const std::vector<const TimeSeries *> &series,
                 int precision = 3);

} // namespace tmo::stats
