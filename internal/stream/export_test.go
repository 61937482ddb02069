package stream

// The continuous-query tests drive this transport through the
// standing-query core (internal/registry), which imports this package,
// so they live in the external test package stream_test. These exports
// lend them the internal test helpers.
var (
	SensorStructure       = sensorStructure
	TS                    = ts
	RootFragment          = rootFragment
	EventFragment         = eventFragment
	ChaosTraffic          = chaosTraffic
	EvalOver              = evalOver
	Itoa                  = itoa
	StartFaultyServer     = startFaultyServer
	SeededDialOptions     = testDialOptions
	WaitFor               = waitFor
	OpenSegT              = openSegT
	AssertNoGoroutineLeak = assertNoGoroutineLeak
)

const ChaosQuery = chaosQuery
