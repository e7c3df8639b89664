package sim

// KernelSeq exposes the schedule counter to the external tests: equal
// final counters are the sharpest witness that two runs scheduled the
// same events.
func KernelSeq(k *Kernel) uint64 { return k.seq }
