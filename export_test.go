package dismastd

// The ingest ceiling, opened to the external tests: admitting growth of
// exactly the ceiling is checked without making a test allocate it.
const MaxBatchGrowth = maxBatchGrowth

func (s *Stream) CheckEvents(events []Event) error { return s.checkEvents(events) }
