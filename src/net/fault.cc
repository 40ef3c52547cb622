/**
 * @file
 * Implementation of the fault-model helpers.
 */
#include "fault.h"

#include <algorithm>
#include <cmath>

namespace nazar::net {

double
FaultConfig::backoffBeforeRetry(int attempt) const
{
    double raw = backoffBase * std::pow(2.0, attempt - 1);
    return std::min(backoffCap, raw);
}

double
ReconnectPolicy::backoffBeforeAttemptMs(int attempt) const
{
    double raw = backoffBaseMs * std::pow(2.0, attempt - 1);
    return std::min(backoffCapMs, raw);
}

} // namespace nazar::net
