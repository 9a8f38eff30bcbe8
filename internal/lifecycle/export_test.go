package lifecycle

// The lifecycle_test package drives a manager through server.NewHandler,
// which imports this package, so its tests share these helpers from
// outside.
var (
	FastConfig    = fastConfig
	Campus        = campus
	OpenManaged   = openManaged
	AbsorbedNames = absorbedNames
)
