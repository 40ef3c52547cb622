/**
 * @file
 * Implementation of BnPatch.
 */
#include "bn_patch.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.h"

namespace nazar::nn {

namespace {

/**
 * One matrix line: "rows cols v0 v1 ...". Each value is printf's
 * "%.17g" (what `os << setprecision(17) << v` prints, -0, denormals,
 * inf and nan included), formatted by std::to_chars into one buffer
 * and written with a single call.
 */
void
writeMatrix(std::ostream &os, const Matrix &m)
{
    // Longest texts: a size_t is 20 digits, a "%.17g" double 24
    // characters ("-1.2345678901234567e-308"); each value has a
    // leading space, the header one space and the line its newline.
    constexpr size_t kMaxSize = 20, kMaxDouble = 24;
    std::string line(2 * kMaxSize + 2 + m.rows() * m.cols() * (kMaxDouble + 1),
                     '\0');
    char *out = line.data();
    char *const end = out + line.size();
    out = std::to_chars(out, end, m.rows()).ptr;
    *out++ = ' ';
    out = std::to_chars(out, end, m.cols()).ptr;
    for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t c = 0; c < m.cols(); ++c) {
            *out++ = ' ';
            out = std::to_chars(out, end, m(r, c),
                                std::chars_format::general, 17)
                      .ptr;
        }
    }
    *out++ = '\n';
    os.write(line.data(), out - line.data());
}

Matrix
readMatrix(std::istream &is)
{
    size_t rows = 0, cols = 0;
    is >> rows >> cols;
    NAZAR_CHECK(is.good() && rows > 0 && cols > 0,
                "malformed matrix header in BnPatch stream");
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            is >> m(r, c);
    NAZAR_CHECK(!is.fail(), "malformed matrix body in BnPatch stream");
    return m;
}

} // namespace

BnPatch
BnPatch::extract(const Sequential &net)
{
    BnPatch patch;
    for (const BatchNorm1d *bn : net.batchNormLayers())
        patch.states_.push_back(bn->state());
    return patch;
}

BnPatch
BnPatch::fromStates(std::vector<BnState> states)
{
    BnPatch patch;
    patch.states_ = std::move(states);
    return patch;
}

void
BnPatch::apply(Sequential &net) const
{
    auto layers = net.batchNormLayers();
    NAZAR_CHECK(layers.size() == states_.size(),
                "BnPatch layout does not match target network");
    for (size_t i = 0; i < layers.size(); ++i)
        layers[i]->setState(states_[i]);
}

size_t
BnPatch::scalarCount() const
{
    size_t n = 0;
    for (const auto &s : states_) {
        n += s.gamma.size() + s.beta.size() + s.runningMean.size() +
             s.runningVar.size();
    }
    return n;
}

bool
BnPatch::approxEquals(const BnPatch &other, double eps) const
{
    if (states_.size() != other.states_.size())
        return false;
    for (size_t i = 0; i < states_.size(); ++i) {
        const auto &a = states_[i];
        const auto &b = other.states_[i];
        if (!a.gamma.approxEquals(b.gamma, eps) ||
            !a.beta.approxEquals(b.beta, eps) ||
            !a.runningMean.approxEquals(b.runningMean, eps) ||
            !a.runningVar.approxEquals(b.runningVar, eps)) {
            return false;
        }
    }
    return true;
}

double
BnPatch::maxAbsDiff(const BnPatch &other) const
{
    NAZAR_CHECK(states_.size() == other.states_.size(),
                "BnPatch layout mismatch");
    double worst = 0.0;
    auto upd = [&](const Matrix &a, const Matrix &b) {
        NAZAR_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
                    "BnPatch tensor shape mismatch");
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c = 0; c < a.cols(); ++c)
                worst = std::max(worst, std::fabs(a(r, c) - b(r, c)));
    };
    for (size_t i = 0; i < states_.size(); ++i) {
        upd(states_[i].gamma, other.states_[i].gamma);
        upd(states_[i].beta, other.states_[i].beta);
        upd(states_[i].runningMean, other.states_[i].runningMean);
        upd(states_[i].runningVar, other.states_[i].runningVar);
    }
    return worst;
}

void
BnPatch::save(std::ostream &os) const
{
    os << "nazar-bnpatch 1 " << states_.size() << "\n";
    for (const auto &s : states_) {
        writeMatrix(os, s.gamma);
        writeMatrix(os, s.beta);
        writeMatrix(os, s.runningMean);
        writeMatrix(os, s.runningVar);
    }
}

BnPatch
BnPatch::load(std::istream &is)
{
    std::string magic;
    int version = 0;
    size_t count = 0;
    is >> magic >> version >> count;
    NAZAR_CHECK(is.good() && magic == "nazar-bnpatch" && version == 1,
                "not a BnPatch stream");
    BnPatch patch;
    patch.states_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        BnState s;
        s.gamma = readMatrix(is);
        s.beta = readMatrix(is);
        s.runningMean = readMatrix(is);
        s.runningVar = readMatrix(is);
        patch.states_.push_back(std::move(s));
    }
    return patch;
}

} // namespace nazar::nn
