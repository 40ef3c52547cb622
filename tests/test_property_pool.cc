/**
 * @file
 * Property tests for the model pool and version matcher under random
 * operation sequences.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "deploy/matcher.h"
#include "deploy/model_pool.h"

namespace nazar::deploy {
namespace {

using driftlog::Value;
using rca::Attribute;
using rca::AttributeSet;

/** Random non-empty attribute set over small attribute cardinalities. */
AttributeSet
randomCause(Rng &rng)
{
    const char *columns[] = {"weather", "location", "device_id"};
    std::vector<Attribute> attrs;
    // 1..3 attributes over distinct columns.
    size_t count = 1 + rng.index(3);
    std::vector<size_t> cols = {0, 1, 2};
    rng.shuffle(cols);
    for (size_t i = 0; i < count; ++i) {
        attrs.push_back(
            {columns[cols[i]],
             Value("v" + std::to_string(rng.index(3)))});
    }
    return AttributeSet(std::move(attrs));
}

ModelVersion
randomVersion(Rng &rng, int64_t id, int64_t time)
{
    ModelVersion v;
    v.id = id;
    v.cause = randomCause(rng);
    v.riskRatio = rng.uniform(1.0, 5.0);
    v.updatedAt = time;
    return v;
}

class PoolPropertyTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(PoolPropertyTest, InvariantsHoldUnderRandomInstalls)
{
    size_t capacity = GetParam();
    Rng rng(1000 + capacity);
    ModelPool pool(capacity);

    for (int step = 0; step < 300; ++step) {
        ModelVersion v = randomVersion(rng, step + 1, step + 1);
        AttributeSet installed_cause = v.cause;
        pool.install(std::move(v));

        // Capacity respected.
        if (capacity > 0) {
            EXPECT_LE(pool.size(), capacity);
        }

        // Causes are unique.
        std::set<AttributeSet> seen;
        for (const auto &stored : pool.versions())
            EXPECT_TRUE(seen.insert(stored.cause).second);

        // The just-installed cause has no surviving attribute-superset
        // version (rule 2 evicted them).
        for (const auto &stored : pool.versions())
            EXPECT_FALSE(
                installed_cause.isProperSubsetOf(stored.cause))
                << "superset " << stored.cause.toString()
                << " survived install of "
                << installed_cause.toString();

        // Recency order: updatedAt non-increasing front to back.
        int64_t prev = std::numeric_limits<int64_t>::max();
        for (const auto &stored : pool.versions()) {
            EXPECT_LE(stored.updatedAt, prev);
            prev = stored.updatedAt;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, PoolPropertyTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u));

/** Brute-force reference for selectVersion's documented ordering. */
const ModelVersion *
bruteForceSelect(const ModelPool &pool, const AttributeSet &context)
{
    const ModelVersion *best = nullptr;
    for (const auto &v : pool.versions()) {
        if (!causeMatchesContext(v.cause, context))
            continue;
        if (best == nullptr) {
            best = &v;
            continue;
        }
        auto key = [](const ModelVersion &m) {
            return std::tuple<size_t, int64_t, double>(
                m.cause.size(), m.updatedAt, m.riskRatio);
        };
        if (key(v) > key(*best))
            best = &v;
    }
    return best;
}

TEST(MatcherProperty, AgreesWithBruteForce)
{
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        ModelPool pool(0);
        int installs = 1 + static_cast<int>(rng.index(12));
        for (int i = 0; i < installs; ++i)
            pool.install(randomVersion(
                rng, i + 1,
                static_cast<int64_t>(rng.uniformInt(1, 5))));

        // Random full context (one value per column).
        AttributeSet context(
            {{"weather", Value("v" + std::to_string(rng.index(3)))},
             {"location", Value("v" + std::to_string(rng.index(3)))},
             {"device_id",
              Value("v" + std::to_string(rng.index(3)))}});

        const ModelVersion *fast = selectVersion(pool, context);
        const ModelVersion *slow = bruteForceSelect(pool, context);
        if (slow == nullptr) {
            EXPECT_EQ(fast, nullptr);
        } else {
            ASSERT_NE(fast, nullptr);
            // Equal by the ordering key (ties may pick either).
            EXPECT_EQ(fast->cause.size(), slow->cause.size());
            EXPECT_EQ(fast->updatedAt, slow->updatedAt);
            EXPECT_EQ(fast->riskRatio, slow->riskRatio);
        }
    }
}

TEST(MatcherProperty, SelectedVersionAlwaysMatchesContext)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        ModelPool pool(0);
        for (int i = 0; i < 8; ++i)
            pool.install(randomVersion(rng, i + 1, i + 1));
        AttributeSet context(
            {{"weather", Value("v" + std::to_string(rng.index(3)))},
             {"location", Value("v" + std::to_string(rng.index(3)))},
             {"device_id",
              Value("v" + std::to_string(rng.index(3)))}});
        const ModelVersion *picked = selectVersion(pool, context);
        if (picked != nullptr) {
            EXPECT_TRUE(causeMatchesContext(picked->cause, context));
        }
    }
}

} // namespace
} // namespace nazar::deploy
