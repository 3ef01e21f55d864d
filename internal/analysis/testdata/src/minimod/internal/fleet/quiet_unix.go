//go:build unix

package fleet

// quiet and its twin in quiet_other.go split one name by build constraint;
// the loader type-checks only the half this platform builds.
func quiet() bool { return true }
