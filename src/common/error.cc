#include "common/error.hh"

#include <cmath>
#include <sstream>

namespace sdnav
{

double
requireProbability(double value, std::string_view name)
{
    if (!(value >= 0.0 && value <= 1.0) || std::isnan(value)) {
        std::ostringstream os;
        os << name << " must be a probability in [0, 1], got " << value;
        throw ModelError(os.str());
    }
    return value;
}

double
requirePositive(double value, std::string_view name)
{
    if (!(value > 0.0) || std::isnan(value) || std::isinf(value)) {
        std::ostringstream os;
        os << name << " must be finite and > 0, got " << value;
        throw ModelError(os.str());
    }
    return value;
}

double
requireNonNegative(double value, std::string_view name)
{
    if (!(value >= 0.0) || std::isnan(value) || std::isinf(value)) {
        std::ostringstream os;
        os << name << " must be finite and >= 0, got " << value;
        throw ModelError(os.str());
    }
    return value;
}

} // namespace sdnav
