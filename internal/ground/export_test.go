package ground

// Test helpers of this package's internal tests, exported to its
// external tests, which import packages that import ground.
var (
	RandSkolemProgram = randSkolemProgram
	TwoLayerDatabase  = twoLayerDatabase
)
