package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildVersion reports the module version stamped into the binary, or
// "devel" for unstamped builds (go run, plain go build of a work tree).
// The build info is read once per process: it cannot change, and parsing
// it on every PublishBuildInfo would cost each CLI evaluation.
func BuildVersion() string { return buildVersion() }

var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
	}
	return "devel"
})

// PublishBuildInfo registers the standard build-identity gauge,
//
//	powerbench_build_info{version,go_version,goos,goarch} 1
//
// pre-touched at startup so the series exists from the first scrape and
// dashboards can join on it immediately. The value is constant 1; the
// information lives in the labels, following the Prometheus *_build_info
// convention. A nil registry is a no-op.
func PublishBuildInfo(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("powerbench_build_info",
		L("version", BuildVersion()),
		L("go_version", runtime.Version()),
		L("goos", runtime.GOOS),
		L("goarch", runtime.GOARCH),
	).Set(1)
}
