/**
 * @file
 * Measurement likelihood kernel: P(observed ticks | true cycles).
 *
 * Boundary timestamps are quantized by the timer (floor(cycles/R) with a
 * uniformly distributed phase) and may carry Gaussian capture jitter.
 * The kernel gives every estimator a shared, honest observation model:
 * for a true duration of L cycles, the measured tick count is
 * floor(L/R) or floor(L/R)+1 (probability frac(L/R)), convolved with
 * the jitter of both endpoints.
 */

#ifndef CT_TOMOGRAPHY_NOISE_KERNEL_HH
#define CT_TOMOGRAPHY_NOISE_KERNEL_HH

#include <cstdint>
#include <utility>

namespace ct::tomography {

/** Observation model for quantized, jittered duration measurements. */
class NoiseKernel
{
  public:
    /**
     * @param cycles_per_tick timer quantum R (>= 1)
     * @param jitter_sigma_ticks per-timestamp Gaussian jitter std, in
     *        ticks (>= 0); duration jitter is sqrt(2) times this.
     */
    NoiseKernel(uint64_t cycles_per_tick, double jitter_sigma_ticks = 0.0);

    /**
     * P(measured == @p observed_ticks | duration == @p true_cycles).
     *
     * @param extra_var_ticks2 additional duration variance in ticks^2
     *        beyond quantization and jitter — used for paths whose cost
     *        is itself stochastic (callee bodies folded in at their
     *        expected duration contribute their variance here).
     */
    double prob(int64_t observed_ticks, double true_cycles,
                double extra_var_ticks2 = 0.0) const;

    /** log(prob), floored at logFloor() to keep likelihoods finite. */
    double logProb(int64_t observed_ticks, double true_cycles,
                   double extra_var_ticks2 = 0.0) const;

    /**
     * Window [lo, hi] of tick values outside which prob() is exactly
     * +0.0 for the given duration: the two quantization ticks, widened
     * by the ceil(6 sigma) noise cut on each side when sigma > 0. The
     * path table's tick index relies on that exactness.
     */
    std::pair<int64_t, int64_t> support(double true_cycles,
                                        double extra_var_ticks2 = 0.0) const;

    uint64_t cyclesPerTick() const { return cyclesPerTick_; }
    double jitterSigmaTicks() const { return jitterSigma_; }

    /**
     * Variance of the measurement noise in ticks^2: quantization
     * (~1/6) plus endpoint jitter (2 sigma^2). The moment estimator
     * subtracts this from the observed variance.
     */
    double noiseVarianceTicks() const;

    static double logFloor() { return -45.0; }

  private:
    /** P(displacement == j ticks) for a Gaussian of std @p sigma. */
    static double noiseMass(int64_t j, double sigma);

    /** Effective duration-noise sigma given extra variance. */
    double effectiveSigma(double extra_var_ticks2) const;

    uint64_t cyclesPerTick_;
    double jitterSigma_;   //!< per-timestamp sigma, ticks
    double durationSigma_; //!< sqrt(2) * jitterSigma_
};

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_NOISE_KERNEL_HH
