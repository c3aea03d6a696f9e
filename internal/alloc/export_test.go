package alloc

// AllocateScan exports the test oracle to the external corpus test.
var AllocateScan = allocateScan
