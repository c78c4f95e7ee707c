/**
 * @file
 * Host-speed reference for the benchmark's timings.
 *
 * On a shared host the same binary runs 20-40% faster or slower for tens
 * of seconds at a time as other tenants' load comes and goes, so raw
 * wall times of two invocations minutes apart differ by more than the
 * changes the benchmark exists to detect. The benchmark therefore times
 * a fixed reference kernel between its runs and rescales each run's
 * wall time to a host on which that kernel takes kReferenceNominalS.
 * The kernel lives in the benchmark, not in the simulator, so a change
 * to the simulator cannot move it.
 *
 * Host load slows the simulator more than the kernel: across invocations
 * the log of the simulator's run time rose 1.3-1.7 times as fast as the
 * log of the kernel's on all four workloads (1.2-1.8 in a separate
 * calibration). The rescaling therefore uses the kernel time to the
 * power kHostSensitivity. At 1.0 the rescaled run times of ten
 * invocations spread 10% and 17% on two workloads; at 1.5 they stayed
 * under 7% on all four, and under 9% in a later set on a busier host.
 */
#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <vector>

namespace perfbench {

/** Reference-kernel time the rescaled timings are expressed against. */
inline constexpr double kReferenceNominalS = 0.1;
/** How steeply the simulator's time follows the kernel's (see above). */
inline constexpr double kHostSensitivity = 1.5;

/** Host seconds of one pass of the reference kernel. */
double referenceKernelSeconds();

/** Tracks host speed across the runs of one invocation. */
class HostSpeed
{
  public:
    /** Times a first kernel pass, the "before" of the first run. */
    HostSpeed();

    /**
     * Time a kernel pass now and return the factor that rescales a wall
     * time measured since the previous pass: kReferenceNominalS over the
     * mean of the two passes that bracket it, to kHostSensitivity.
     */
    double rescaleSinceLastPass();

    /** Every kernel pass so far, in seconds. */
    const std::vector<double> &passes() const { return passes_; }

  private:
    std::vector<double> passes_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_H
