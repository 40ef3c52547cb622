/**
 * @file
 * Reference text formatting for BN patches: the iostream writer that
 * prints every value with `setprecision(17)`, and a patch holding the
 * doubles whose text is easiest to get wrong (signed zeros, the
 * smallest denormal, DBL_MAX, infinities, NaNs of both signs).
 * test_bn_patch and test_registry require BnPatch::save and
 * ModelVersion::save to write exactly the oracle's bytes.
 */
#ifndef NAZAR_TESTS_FORMAT_ORACLE_H
#define NAZAR_TESTS_FORMAT_ORACLE_H

#include <cfloat>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/bn_patch.h"

namespace nazar::nn::oracle {

/** "rows cols v0 v1 ...\n", values through `os << double`. */
inline void
writeMatrixStream(std::ostream &os, const Matrix &m)
{
    os << m.rows() << " " << m.cols();
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            os << " " << m(r, c);
    os << "\n";
}

/** BnPatch's text, every value printed at setprecision(17). */
inline void
saveBnPatchStream(std::ostream &os, const BnPatch &patch)
{
    os << std::setprecision(17);
    os << "nazar-bnpatch 1 " << patch.layerCount() << "\n";
    for (size_t i = 0; i < patch.layerCount(); ++i) {
        const BnState &s = patch.state(i);
        writeMatrixStream(os, s.gamma);
        writeMatrixStream(os, s.beta);
        writeMatrixStream(os, s.runningMean);
        writeMatrixStream(os, s.runningVar);
    }
}

inline std::string
bnPatchText(const BnPatch &patch)
{
    std::ostringstream os;
    saveBnPatchStream(os, patch);
    return os.str();
}

/** Doubles whose shortest round-trip and "%.17g" texts are tricky. */
inline std::vector<double>
specialValues()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {0.0,     -0.0,     std::numeric_limits<double>::denorm_min(),
            DBL_MAX, -DBL_MAX, DBL_MIN,
            inf,     -inf,     nan,
            -nan,    0.1,      1e17,
            -2.5,    1.0 / 3.0, 123456789.0,
            1e-300};
}

/** A two-layer patch built from specialValues(), every slot distinct. */
inline BnPatch
specialValuesPatch()
{
    const std::vector<double> values = specialValues();
    const size_t n = values.size();
    auto row = [&](size_t shift) {
        Matrix m(1, n);
        for (size_t c = 0; c < n; ++c)
            m(0, c) = values[(c + shift) % n];
        return m;
    };
    std::vector<BnState> states;
    for (size_t layer = 0; layer < 2; ++layer)
        states.push_back(BnState{row(4 * layer), row(4 * layer + 1),
                                 row(4 * layer + 2),
                                 row(4 * layer + 3)});
    return BnPatch::fromStates(std::move(states));
}

} // namespace nazar::nn::oracle

#endif // NAZAR_TESTS_FORMAT_ORACLE_H
