/**
 * @file
 * Tests for the blob store and the model registry.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "deploy/registry.h"
#include "format_oracle.h"
#include "nn/activation.h"
#include "nn/linear.h"

namespace nazar::deploy {
namespace {

using driftlog::Value;
using rca::AttributeSet;

TEST(BlobStore, PutGetRemove)
{
    BlobStore store;
    store.put("a/b", "hello");
    EXPECT_TRUE(store.contains("a/b"));
    EXPECT_EQ(store.get("a/b"), "hello");
    EXPECT_EQ(store.blobCount(), 1u);
    EXPECT_EQ(store.totalBytes(), 5u);

    store.put("a/b", "hi"); // overwrite
    EXPECT_EQ(store.get("a/b"), "hi");
    EXPECT_EQ(store.totalBytes(), 2u);

    EXPECT_TRUE(store.remove("a/b"));
    EXPECT_FALSE(store.remove("a/b"));
    EXPECT_THROW(store.get("a/b"), NazarError);
    EXPECT_THROW(store.put("", "x"), NazarError);
}

TEST(BlobStore, ListByPrefix)
{
    BlobStore store;
    store.put("versions/1/meta", "m");
    store.put("versions/1/patch", "p");
    store.put("versions/2/meta", "m");
    store.put("logs/day0", "l");
    EXPECT_EQ(store.list("versions/").size(), 3u);
    EXPECT_EQ(store.list("logs/").size(), 1u);
    EXPECT_EQ(store.list().size(), 4u);
    EXPECT_TRUE(store.list("nothing/").empty());
}

/** A BN patch with distinctive values for round-trip checks. */
nn::BnPatch
samplePatch(uint64_t seed)
{
    Rng rng(seed);
    nn::Sequential net;
    net.add(std::make_unique<nn::Linear>(4, 6, rng));
    net.add(std::make_unique<nn::BatchNorm1d>(6));
    net.forward(nn::Matrix::randomNormal(8, 4, 2.0, rng),
                nn::Mode::kAdapt);
    return nn::BnPatch::extract(net);
}

ModelVersion
sampleVersion(int64_t id, uint64_t seed)
{
    ModelVersion v;
    v.id = id;
    v.cause = AttributeSet({{"weather", Value("snow")},
                            {"location", Value("oslo")}});
    v.riskRatio = 2.75;
    v.updatedAt = 4;
    v.patch = samplePatch(seed);
    return v;
}

TEST(ModelRegistry, PublishAssignsIds)
{
    BlobStore store;
    ModelRegistry registry(store);
    ModelVersion v = sampleVersion(0, 1);
    int64_t id = registry.publish(v);
    EXPECT_EQ(id, 1);
    EXPECT_EQ(registry.publish(sampleVersion(0, 2)), 2);
    // Explicit ids are respected and advance the counter.
    EXPECT_EQ(registry.publish(sampleVersion(10, 3)), 10);
    EXPECT_EQ(registry.publish(sampleVersion(0, 4)), 11);
}

TEST(ModelRegistry, FetchRoundTrip)
{
    BlobStore store;
    ModelRegistry registry(store);
    ModelVersion original = sampleVersion(7, 5);
    registry.publish(original);

    ASSERT_TRUE(registry.contains(7));
    ModelVersion back = registry.fetch(7);
    EXPECT_EQ(back.id, 7);
    EXPECT_EQ(back.cause, original.cause);
    EXPECT_NEAR(back.riskRatio, 2.75, 1e-12);
    EXPECT_EQ(back.updatedAt, 4);
    EXPECT_TRUE(back.patch.approxEquals(original.patch, 1e-12));
}

TEST(ModelRegistry, FetchUnknownThrows)
{
    BlobStore store;
    ModelRegistry registry(store);
    EXPECT_FALSE(registry.contains(3));
    EXPECT_THROW(registry.fetch(3), NazarError);
}

TEST(ModelRegistry, VersionIdsSorted)
{
    BlobStore store;
    ModelRegistry registry(store);
    registry.publish(sampleVersion(5, 1));
    registry.publish(sampleVersion(2, 2));
    registry.publish(sampleVersion(9, 3));
    EXPECT_EQ(registry.versionIds(), (std::vector<int64_t>{2, 5, 9}));
    EXPECT_EQ(registry.size(), 3u);
}

TEST(ModelRegistry, LatestForCause)
{
    BlobStore store;
    ModelRegistry registry(store);
    ModelVersion old_version = sampleVersion(1, 1);
    old_version.updatedAt = 1;
    ModelVersion new_version = sampleVersion(2, 2);
    new_version.updatedAt = 9;
    registry.publish(old_version);
    registry.publish(new_version);

    auto latest = registry.latestForCause(old_version.cause);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->id, 2);

    AttributeSet other({{"weather", Value("fog")}});
    EXPECT_FALSE(registry.latestForCause(other).has_value());
}

TEST(ModelRegistry, CleanCauseRoundTrip)
{
    // A version with an empty cause (clean-model recalibration).
    BlobStore store;
    ModelRegistry registry(store);
    ModelVersion v;
    v.patch = samplePatch(11);
    int64_t id = registry.publish(v);
    ModelVersion back = registry.fetch(id);
    EXPECT_TRUE(back.isClean());
    EXPECT_TRUE(back.cause.empty());
}

TEST(ModelRegistry, BlobFootprintMatchesPatchScale)
{
    // The deployment-size argument: stored blobs are KB-scale.
    BlobStore store;
    ModelRegistry registry(store);
    registry.publish(sampleVersion(0, 1));
    EXPECT_GT(store.totalBytes(), 100u);
    EXPECT_LT(store.totalBytes(), 100000u);
}

TEST(VersionFormat, SaveAndPublishMatchStreamOracleOnSpecialValues)
{
    ModelVersion v = sampleVersion(7, 1);
    v.patch = nn::oracle::specialValuesPatch();
    const std::string patch_text = nn::oracle::bnPatchText(v.patch);

    std::ostringstream saved;
    v.save(saved);
    // Header lines in AttributeSet order, then the patch text.
    std::string expected = "nazar-modelversion 1\n7 " +
                           driftlog::formatDoubleExact(v.riskRatio) +
                           " 4\n2\n";
    for (const auto &attr : v.cause.attributes())
        expected += attr.column + "\n" +
                    encodeValueLine(attr.value) + "\n";
    EXPECT_EQ(saved.str(), expected + patch_text);

    BlobStore store;
    ModelRegistry registry(store);
    registry.publish(v);
    EXPECT_EQ(store.get(ModelRegistry::patchKey(7)), patch_text);
}

} // namespace
} // namespace nazar::deploy
