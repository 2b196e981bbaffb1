package linearroad

// Test-only configuration: the commands and benchmarks build their own.

// DefaultConfig matches a small but representative run: 1 expressway, 500
// cars, 5 simulated minutes.
func DefaultConfig() Config {
	return Config{
		Xways:          1,
		CarsPerXway:    500,
		DurationSec:    300,
		ReportEverySec: 30,
		AccidentProb:   0.002,
		Seed:           42,
	}
}
