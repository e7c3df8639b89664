package sim

// KernelSeq and ParKernelSeq expose the schedule counters to the
// external tests: equal final counters are the sharpest witness that a
// partitioned run numbered every event as the serial kernel did.
func KernelSeq(k *Kernel) uint64        { return k.seq }
func ParKernelSeq(pk *ParKernel) uint64 { return pk.seq }
