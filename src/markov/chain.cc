#include "markov/chain.hh"

#include <cmath>

#include "util/logging.hh"

namespace ct::markov {

AbsorbingChain::AbsorbingChain(size_t n)
    : n_(n), q_(n, n), edgeReward_(n, n), stateReward_(n, 0.0),
      exitReward_(n, 0.0)
{
    CT_ASSERT(n > 0, "AbsorbingChain needs at least one state");
}

void
AbsorbingChain::checkState(size_t s) const
{
    CT_ASSERT(s < n_, "chain state ", s, " out of range (n=", n_, ")");
}

void
AbsorbingChain::setTransition(size_t from, size_t to, double p)
{
    checkState(from);
    checkState(to);
    CT_ASSERT(p >= 0.0 && p <= 1.0 + 1e-12, "transition prob out of range");
    q_.at(from, to) = p;
}

double
AbsorbingChain::transition(size_t from, size_t to) const
{
    checkState(from);
    checkState(to);
    return q_.at(from, to);
}

double
AbsorbingChain::exitProb(size_t from) const
{
    checkState(from);
    double sum = 0.0;
    for (size_t j = 0; j < n_; ++j)
        sum += q_.at(from, j);
    return std::max(0.0, 1.0 - sum);
}

void
AbsorbingChain::setStateReward(size_t state, double reward)
{
    checkState(state);
    stateReward_[state] = reward;
}

double
AbsorbingChain::stateReward(size_t state) const
{
    checkState(state);
    return stateReward_[state];
}

void
AbsorbingChain::setEdgeReward(size_t from, size_t to, double reward)
{
    checkState(from);
    checkState(to);
    edgeReward_.at(from, to) = reward;
}

double
AbsorbingChain::edgeReward(size_t from, size_t to) const
{
    checkState(from);
    checkState(to);
    return edgeReward_.at(from, to);
}

void
AbsorbingChain::setExitReward(size_t from, double reward)
{
    checkState(from);
    exitReward_[from] = reward;
}

double
AbsorbingChain::exitReward(size_t from) const
{
    checkState(from);
    return exitReward_[from];
}

bool
AbsorbingChain::valid() const
{
    for (size_t i = 0; i < n_; ++i) {
        double sum = 0.0;
        for (size_t j = 0; j < n_; ++j) {
            double p = q_.at(i, j);
            if (p < 0.0 || p > 1.0 + 1e-9)
                return false;
            sum += p;
        }
        if (sum > 1.0 + 1e-9)
            return false;
    }
    return true;
}

bool
AbsorbingChain::absorbing(size_t start) const
{
    checkState(start);
    Matrix m = Matrix::identity(n_) - q_;
    Matrix inv;
    if (!m.inverse(inv))
        return false;
    // A singular-free inverse with non-negative entries means expected
    // visit counts are finite.
    for (size_t j = 0; j < n_; ++j) {
        double visits = inv.at(start, j);
        if (!std::isfinite(visits) || visits < -1e-9)
            return false;
    }
    return true;
}

Matrix
AbsorbingChain::fundamentalMatrix() const
{
    Matrix m = Matrix::identity(n_) - q_;
    Matrix inv;
    if (!m.inverse(inv))
        panic("chain is not absorbing: (I - Q) is singular");
    return inv;
}

std::vector<double>
AbsorbingChain::expectedVisits(size_t start) const
{
    checkState(start);
    Matrix n = fundamentalMatrix();
    std::vector<double> out(n_);
    for (size_t j = 0; j < n_; ++j)
        out[j] = n.at(start, j);
    return out;
}

double
AbsorbingChain::expectedEdgeTraversals(size_t start, size_t from,
                                       size_t to) const
{
    checkState(from);
    checkState(to);
    return expectedVisits(start)[from] * q_.at(from, to);
}

std::vector<double>
AbsorbingChain::meanRewardVector() const
{
    // m = (I - Q)^-1 c, with c_i the expected reward of one step from i.
    std::vector<double> c(n_, 0.0);
    for (size_t i = 0; i < n_; ++i) {
        double expected = exitProb(i) * (stateReward_[i] + exitReward_[i]);
        for (size_t j = 0; j < n_; ++j) {
            double p = q_.at(i, j);
            if (p > 0.0)
                expected += p * (stateReward_[i] + edgeReward_.at(i, j));
        }
        c[i] = expected;
    }
    Matrix m = Matrix::identity(n_) - q_;
    std::vector<double> out;
    if (!m.solve(c, out))
        panic("meanReward: chain is not absorbing");
    return out;
}

double
AbsorbingChain::meanReward(size_t start) const
{
    checkState(start);
    return meanRewardVector()[start];
}

double
AbsorbingChain::varianceReward(size_t start) const
{
    checkState(start);
    std::vector<double> m = meanRewardVector();

    // Second moment s solves s = b + Q s where
    // b_i = sum_j q_ij (c_ij^2 + 2 c_ij m_j) + q_ie c_ie^2.
    std::vector<double> b(n_, 0.0);
    for (size_t i = 0; i < n_; ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < n_; ++j) {
            double p = q_.at(i, j);
            if (p <= 0.0)
                continue;
            double c = stateReward_[i] + edgeReward_.at(i, j);
            acc += p * (c * c + 2.0 * c * m[j]);
        }
        double pe = exitProb(i);
        double ce = stateReward_[i] + exitReward_[i];
        acc += pe * ce * ce;
        b[i] = acc;
    }
    Matrix sys = Matrix::identity(n_) - q_;
    std::vector<double> s;
    if (!sys.solve(b, s))
        panic("varianceReward: chain is not absorbing");
    double variance = s[start] - m[start] * m[start];
    // Clamp tiny negative values produced by floating-point cancellation.
    return variance < 0.0 && variance > -1e-6 ? 0.0 : variance;
}

Walk
AbsorbingChain::sample(Rng &rng, size_t start) const
{
    checkState(start);
    Walk walk;
    size_t state = start;
    // Guard against accidental non-absorbing chains in user code.
    const size_t step_limit = 10'000'000;
    for (size_t step = 0; step < step_limit; ++step) {
        walk.states.push_back(state);
        double u = rng.uniform();
        double acc = 0.0;
        bool moved = false;
        for (size_t j = 0; j < n_; ++j) {
            double p = q_.at(state, j);
            if (p <= 0.0)
                continue;
            acc += p;
            if (u < acc) {
                walk.reward += stateReward_[state] + edgeReward_.at(state, j);
                state = j;
                moved = true;
                break;
            }
        }
        if (!moved) {
            walk.reward += stateReward_[state] + exitReward_[state];
            return walk;
        }
    }
    panic("AbsorbingChain::sample did not absorb within ", step_limit,
          " steps; chain is likely not absorbing");
}

} // namespace ct::markov
