package goldens

import "math"

func mathFloat64bits(v float64) uint64 { return math.Float64bits(v) }

// Golden hashes recorded from the seed (pre-workspace) implementation.
// A zero value means "not yet recorded": the test logs the hash instead
// of asserting, which is how these constants were first captured.
const (
	goldCP         uint64 = 0x9b86cd3bec434c94
	goldDTD        uint64 = 0xbae0406ea3a4fbea
	goldCoreGTP    uint64 = 0x72bb9276d2504148
	goldCoreMTP    uint64 = 0x78e7dc89184aeeb4
	goldDMSMG      uint64 = 0x1e30f06d90a92a92
	goldCompletion uint64 = 0x07dd22def348810d
)
