package analysis

// Test-only exports for the external tests (package analysis_test),
// which compare the frame against the reference subpackage; that
// package imports this one, so those tests cannot live inside it.

var (
	FrameSample = frameSample
	FrameGroups = frameGroups
)

func (f *Frame) QueryPairs() (groupedPeers []uint32, perFileOff, perFileCnt []int32) {
	return f.queryPairs()
}
