#include "common/stats.h"

#include <cmath>
#include <sstream>

#include "common/log.h"

namespace h2 {

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        h2_assert(v > 0.0, "geomean requires positive values, got ", v);
        acc += std::log(v);
    }
    return std::exp(acc / values.size());
}

double
ratioOrZero(double num, double den)
{
    if (!std::isfinite(num) || !std::isfinite(den) || den == 0.0)
        return 0.0;
    double q = num / den;
    return std::isfinite(q) ? q : 0.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / values.size();
}

void
StatSet::add(const std::string &name, double value)
{
    vals[name] = value;
}

void
StatSet::increment(const std::string &name, double delta)
{
    vals[name] += delta;
}

bool
StatSet::has(const std::string &name) const
{
    return vals.count(name) != 0;
}

double
StatSet::get(const std::string &name) const
{
    auto it = vals.find(name);
    h2_assert(it != vals.end(), "unknown stat: ", name);
    return it->second;
}

std::string
StatSet::toString() const
{
    std::ostringstream os;
    for (const auto &[k, v] : vals)
        os << k << " = " << v << "\n";
    return os.str();
}

} // namespace h2
