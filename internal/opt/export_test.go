package opt

// Test-only access for the external oracle tests: the dense reference
// ConstProp, Optimize's round limit and the hand-built function helper.
var (
	DenseConstProp = denseConstProp
	BuildFunc      = buildFunc
)

const MaxRounds = maxRounds
