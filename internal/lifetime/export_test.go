package lifetime

// Test-only oracles, exported to the external corpus tests.
var (
	BuildWIGScan       = buildWIGScan
	MCWOptimisticScan  = mcwOptimisticScan
	MCWPessimisticScan = mcwPessimisticScan
)
