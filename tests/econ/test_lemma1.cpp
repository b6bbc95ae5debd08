// Lemma 1 of the paper: under smoothness/convexity conditions on D,
// the CSP's revenue-maximizing price p*(t) is strictly increasing in
// the termination fee t. Verified numerically across demand families
// and fee grids.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "econ/pricing_models.hpp"

namespace poc::econ {
namespace {

enum class Family : std::uint64_t { linear, exponential, isoelastic, logistic };

// Plain values only, with no padding: gtest prints an unprintable
// parameter's raw bytes into the test id, so a pointer (a std::string
// or a shared_ptr) would put a heap address into the name and change
// it on every test discovery.
struct Lemma1Case {
    char label[24];
    Family family;
    double a;  // p_max, theta, p_knee or mid
    double b;  // sigma or scale; unused by the one-parameter families
    double t_max;
};

std::unique_ptr<const DemandCurve> make_demand(const Lemma1Case& c) {
    switch (c.family) {
        case Family::linear: return std::make_unique<LinearDemand>(c.a);
        case Family::exponential: return std::make_unique<ExponentialDemand>(c.a);
        case Family::isoelastic: return std::make_unique<IsoelasticDemand>(c.a, c.b);
        case Family::logistic: return std::make_unique<LogisticDemand>(c.a, c.b);
    }
    return nullptr;
}

class Lemma1 : public ::testing::TestWithParam<Lemma1Case> {};

TEST_P(Lemma1, PriceResponseMonotoneNonDecreasing) {
    const auto& c = GetParam();
    const auto demand = make_demand(c);
    const auto curve = price_response_curve(*demand, c.t_max, 41);
    for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
        EXPECT_LE(curve[i].second, curve[i + 1].second + 1e-4)
            << c.label << " at t=" << curve[i].first;
    }
}

TEST_P(Lemma1, StrictlyIncreasingWhereDemandSatisfiesConditions) {
    // The lemma's hypotheses (strictly decreasing, strictly convex,
    // vanishing D) hold for the exponential family everywhere; assert
    // strict growth there, and weak growth elsewhere (linear demand is
    // only weakly convex, so p can plateau after demand hits zero).
    const auto& c = GetParam();
    if (c.family != Family::exponential) return;
    const auto demand = make_demand(c);
    const auto curve = price_response_curve(*demand, c.t_max, 21);
    for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
        EXPECT_LT(curve[i].second, curve[i + 1].second) << " at t=" << curve[i].first;
    }
}

TEST_P(Lemma1, HigherFeesNeverIncreaseServedDemand) {
    // Corollary the welfare argument needs: D(p*(t)) is non-increasing
    // in t, so social welfare decreases with fees.
    const auto& c = GetParam();
    const auto demand = make_demand(c);
    const auto curve = price_response_curve(*demand, c.t_max, 21);
    double prev = demand->demand(curve.front().second);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        const double served = demand->demand(curve[i].second);
        EXPECT_LE(served, prev + 1e-6) << c.label << " at t=" << curve[i].first;
        prev = served;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, Lemma1,
    ::testing::Values(
        Lemma1Case{"linear", Family::linear, 100.0, 0.0, 80.0},
        Lemma1Case{"exponential", Family::exponential, 40.0, 0.0, 120.0},
        Lemma1Case{"isoelastic", Family::isoelastic, 10.0, 2.5, 60.0},
        Lemma1Case{"logistic", Family::logistic, 50.0, 12.0, 90.0}),
    [](const ::testing::TestParamInfo<Lemma1Case>& param_info) {
        return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace poc::econ
