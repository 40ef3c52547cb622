/**
 * @file
 * Tests for BnPatch extraction, application and serialization.
 */
#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "common/error.h"
#include "format_oracle.h"
#include "nn/activation.h"
#include "nn/bn_patch.h"
#include "nn/linear.h"

namespace nazar::nn {
namespace {

Sequential
makeNet(uint64_t seed)
{
    Rng rng(seed);
    Sequential net;
    net.add(std::make_unique<Linear>(4, 6, rng));
    net.add(std::make_unique<BatchNorm1d>(6));
    net.add(std::make_unique<Relu>(6));
    net.add(std::make_unique<Linear>(6, 6, rng));
    net.add(std::make_unique<BatchNorm1d>(6));
    net.add(std::make_unique<Linear>(6, 3, rng));
    return net;
}

TEST(BnPatch, ExtractCapturesAllBnLayers)
{
    Sequential net = makeNet(1);
    BnPatch patch = BnPatch::extract(net);
    EXPECT_EQ(patch.layerCount(), 2u);
    EXPECT_EQ(patch.scalarCount(), 2u * 4u * 6u);
    EXPECT_EQ(patch.sizeBytes(), patch.scalarCount() * sizeof(float));
}

TEST(BnPatch, ApplyTransfersState)
{
    Sequential a = makeNet(1);
    Sequential b = makeNet(1);
    // Perturb a's BN state via adapt-mode forwards.
    Rng rng(2);
    for (int i = 0; i < 5; ++i)
        a.forward(Matrix::randomNormal(8, 4, 2.0, rng), Mode::kAdapt);
    EXPECT_FALSE(
        BnPatch::extract(a).approxEquals(BnPatch::extract(b), 1e-9));

    BnPatch::extract(a).apply(b);
    EXPECT_TRUE(
        BnPatch::extract(a).approxEquals(BnPatch::extract(b), 1e-12));
    Matrix x = Matrix::randomNormal(4, 4, 1.0, rng);
    EXPECT_TRUE(a.forward(x, Mode::kEval)
                    .approxEquals(b.forward(x, Mode::kEval), 1e-12));
}

TEST(BnPatch, ApplyRejectsMismatchedLayout)
{
    Sequential net = makeNet(1);
    Rng rng(3);
    Sequential other;
    other.add(std::make_unique<Linear>(4, 6, rng));
    other.add(std::make_unique<BatchNorm1d>(6));
    BnPatch patch = BnPatch::extract(net); // two BN layers
    EXPECT_THROW(patch.apply(other), NazarError);
}

TEST(BnPatch, SaveLoadRoundTrip)
{
    Sequential net = makeNet(4);
    Rng rng(5);
    net.forward(Matrix::randomNormal(8, 4, 1.5, rng), Mode::kAdapt);
    BnPatch patch = BnPatch::extract(net);

    std::stringstream ss;
    patch.save(ss);
    BnPatch loaded = BnPatch::load(ss);
    EXPECT_TRUE(patch.approxEquals(loaded, 1e-12));
}

TEST(BnPatch, LoadRejectsGarbage)
{
    std::stringstream ss("bogus 9 1\n");
    EXPECT_THROW(BnPatch::load(ss), NazarError);
}

TEST(BnPatch, MaxAbsDiffMeasuresDistance)
{
    Sequential a = makeNet(6);
    BnPatch p1 = BnPatch::extract(a);
    EXPECT_EQ(p1.maxAbsDiff(p1), 0.0);

    Rng rng(7);
    a.forward(Matrix::randomNormal(8, 4, 3.0, rng), Mode::kAdapt);
    BnPatch p2 = BnPatch::extract(a);
    EXPECT_GT(p2.maxAbsDiff(p1), 0.0);
}

TEST(BnPatch, EmptyPatchOnBnFreeNetwork)
{
    Rng rng(8);
    Sequential net;
    net.add(std::make_unique<Linear>(4, 3, rng));
    BnPatch patch = BnPatch::extract(net);
    EXPECT_EQ(patch.layerCount(), 0u);
    EXPECT_EQ(patch.scalarCount(), 0u);
    EXPECT_NO_THROW(patch.apply(net));
}

TEST(BnPatchFormat, SaveMatchesStreamOracleOnSpecialValues)
{
    BnPatch patch = oracle::specialValuesPatch();
    std::ostringstream os;
    patch.save(os);
    const std::string text = os.str();
    EXPECT_EQ(text, oracle::bnPatchText(patch));
    // The oracle's text does hold the cases the patch was built for.
    for (const char *token :
         {" 0 ", " -0 ", " 4.9406564584124654e-324",
          " 1.7976931348623157e+308", " inf", " -inf", " nan", " -nan",
          " 0.10000000000000001", " 1e+17"})
        EXPECT_NE(text.find(token), std::string::npos) << token;
}

TEST(BnPatchFormat, SaveMatchesStreamOracleOnRandomBitPatterns)
{
    // Every double class: normals of all exponents, denormals,
    // NaN payloads, infinities — one row of raw bit patterns.
    Rng rng(11);
    Matrix values(1, 4096);
    for (size_t c = 0; c < values.cols(); ++c)
        values(0, c) = std::bit_cast<double>(rng());
    BnPatch patch = BnPatch::fromStates(
        {BnState{values, values, values, values}});
    std::ostringstream os;
    patch.save(os);
    EXPECT_EQ(os.str(), oracle::bnPatchText(patch));
}

TEST(BnPatchFormat, SaveMatchesStreamOracleOnAdaptedPatch)
{
    Sequential net = makeNet(9);
    Rng rng(10);
    net.forward(Matrix::randomNormal(8, 4, 1.5, rng), Mode::kAdapt);
    BnPatch patch = BnPatch::extract(net);
    std::ostringstream os;
    patch.save(os);
    EXPECT_EQ(os.str(), oracle::bnPatchText(patch));
}

} // namespace
} // namespace nazar::nn
