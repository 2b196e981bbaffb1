package plan

// Helpers shared with the package's external tests (package plan_test),
// which evaluate plans through internal/kernel — a package that imports
// this one.
var (
	TestCatalog = testCatalog
	MustBind    = mustBind
)
