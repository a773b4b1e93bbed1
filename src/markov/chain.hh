/**
 * @file
 * Absorbing discrete-time Markov chains with per-step rewards.
 *
 * This is the mathematical heart of Code Tomography's model: a procedure
 * invocation is one walk of an absorbing DTMC whose transient states are
 * basic blocks and whose accumulated reward is the invocation's
 * end-to-end execution time. The reward collected when leaving state i
 * towards j is r(i) + e(i,j): the block's straight-line cycles plus the
 * control-transfer penalty of that edge.
 */

#ifndef CT_MARKOV_CHAIN_HH
#define CT_MARKOV_CHAIN_HH

#include <vector>

#include "markov/matrix.hh"
#include "stats/rng.hh"

namespace ct::markov {

/** Result of sampling one absorbing walk. */
struct Walk
{
    std::vector<size_t> states; //!< visited transient states in order
    double reward = 0.0;        //!< total accumulated reward
};

/**
 * Absorbing DTMC over n transient states plus one implicit absorbing
 * state. Transition probabilities to other transient states are set
 * explicitly; whatever mass remains from each state flows to the
 * absorbing state.
 */
class AbsorbingChain
{
  public:
    /** Create a chain with @p n transient states, no transitions. */
    explicit AbsorbingChain(size_t n);

    size_t size() const { return n_; }

    /** Set P(i -> j); overwrites any previous value. */
    void setTransition(size_t from, size_t to, double p);
    double transition(size_t from, size_t to) const;

    /** P(i -> absorb) = 1 - sum_j P(i -> j). */
    double exitProb(size_t from) const;

    /** Reward collected on every visit to @p state (block cycles). */
    void setStateReward(size_t state, double reward);
    double stateReward(size_t state) const;

    /** Extra reward on the i->j transition (edge penalty). */
    void setEdgeReward(size_t from, size_t to, double reward);
    double edgeReward(size_t from, size_t to) const;

    /** Extra reward on the i->absorb transition. */
    void setExitReward(size_t from, double reward);
    double exitReward(size_t from) const;

    /**
     * Validate: all probabilities in [0,1] and every row sums to <= 1.
     * @retval true when the chain is a valid substochastic matrix.
     */
    bool valid() const;

    /**
     * True if absorption is certain from @p start (the fundamental matrix
     * exists and is finite).
     */
    bool absorbing(size_t start = 0) const;

    /**
     * Fundamental matrix N = (I - Q)^-1. N[i][j] is the expected number
     * of visits to j before absorption when starting at i. panic()s if
     * the chain is not absorbing.
     */
    Matrix fundamentalMatrix() const;

    /** Expected visits to each state starting from @p start. */
    std::vector<double> expectedVisits(size_t start = 0) const;

    /**
     * Expected traversals of edge (i, j) from @p start:
     * visits(i) * P(i -> j).
     */
    double expectedEdgeTraversals(size_t start, size_t from, size_t to) const;

    /**
     * Mean of the total accumulated reward from @p start. Closed form via
     * the linear system m = c + Q m with c_i the expected one-step reward
     * out of i.
     */
    double meanReward(size_t start = 0) const;

    /**
     * Variance of the total accumulated reward from @p start, via the
     * second-moment linear system
     *   s_i = sum_j q_ij (c_ij^2 + 2 c_ij m_j + s_j) + q_ie c_ie^2
     * with c_ij = r(i) + e(i,j).
     */
    double varianceReward(size_t start = 0) const;

    /** Per-start-state mean rewards (all i at once). */
    std::vector<double> meanRewardVector() const;

    /** Sample one absorbing walk. */
    Walk sample(Rng &rng, size_t start = 0) const;

  private:
    void checkState(size_t s) const;

    size_t n_;
    Matrix q_;           //!< transient transitions
    Matrix edgeReward_;  //!< reward on transient edges
    std::vector<double> stateReward_;
    std::vector<double> exitReward_;
};

} // namespace ct::markov

#endif // CT_MARKOV_CHAIN_HH
