package vitis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readerless lists the exported top-level functions, methods and types that
// no other non-test file names. The list may only shrink: delete a dead
// name, or move a seam its own package's tests use into an export_test.go,
// and take it off here.
var readerless = []string{
	"vitis.DataHandler",
	"vitis.Node.OnData",
	"vitis/internal/core.Node.KnownProfile",
	"vitis/internal/core.Node.PendingPulls",
	"vitis/internal/core.Node.Predecessor",
	"vitis/internal/core.Node.ProposalFor",
	"vitis/internal/core.Node.PullBookkeepingSize",
	"vitis/internal/core.Node.RelayTTLExhausted",
	"vitis/internal/core.Node.Successor",
	"vitis/internal/core.Params.Friends",
	"vitis/internal/core.Utility",
	"vitis/internal/graph.Directed.InDegree",
	"vitis/internal/graph.Undirected.BFSDistances",
	"vitis/internal/graph.Undirected.Eccentricity",
	"vitis/internal/harness.BuildT",
	"vitis/internal/harness.Proc.MustExpect",
	"vitis/internal/harness.StartT",
	"vitis/internal/harness.TB",
	"vitis/internal/idspace.Between",
	"vitis/internal/idspace.BetweenIncl",
	"vitis/internal/idspace.ParseID",
	"vitis/internal/metrics.Oracle.ExtraDeliveries",
	"vitis/internal/metrics.Oracle.OverheadHistogram",
	"vitis/internal/opt.Params.Bounded",
	"vitis/internal/ring.HarmonicDistance",
	"vitis/internal/ring.Liveness.Suspect",
	"vitis/internal/ring.Seen.Rotate",
	"vitis/internal/ring.Tree",
	"vitis/internal/ring.Tree.LeaseParent",
	"vitis/internal/ring.Tree.LeaseRendezvous",
	"vitis/internal/rvr.Node.OnTree",
	"vitis/internal/sampling.Service.Exchanges",
	"vitis/internal/sampling.Service.Stopped",
	"vitis/internal/simnet.ConstantLatency",
	"vitis/internal/simnet.Engine.Drain",
	"vitis/internal/simnet.Engine.RNG",
	"vitis/internal/simnet.Engine.Step",
	"vitis/internal/simnet.Sized",
	"vitis/internal/simnet.Trace.AliveAt",
	"vitis/internal/simnet.TraceError",
	"vitis/internal/stats.CDF",
	"vitis/internal/stats.CDFPoint",
	"vitis/internal/stats.Histogram.BinCenter",
	"vitis/internal/stats.Histogram.Total",
	"vitis/internal/stats.Zipf",
	"vitis/internal/store.MemStore",
	"vitis/internal/telemetry.Collector.RecordAll",
	"vitis/internal/telemetry.EventTree",
	"vitis/internal/telemetry.EventTree.AvgHops",
	"vitis/internal/telemetry.EventTree.Depth",
	"vitis/internal/telemetry.RelayPath",
	"vitis/internal/telemetry.Series.Delta",
	"vitis/internal/telemetry.Series.Increase",
	"vitis/internal/telemetry.Series.Last",
	"vitis/internal/telemetry.Series.Points",
	"vitis/internal/telemetry.TreeNode",
	"vitis/internal/telemetry/alerts.Engine.Status",
	"vitis/internal/tman.Exchanger.ForceSelect",
	"vitis/internal/transport.Driver",
	"vitis/internal/transport.HostCounters",
	"vitis/internal/transport.IsResolveTimeout",
	"vitis/internal/transport.Loopback",
	"vitis/internal/transport.Loopback.Endpoint",
	"vitis/internal/transport.Loopback.Frames",
	"vitis/internal/transport.LoopbackEndpoint",
	"vitis/internal/transport.NewLoopback",
	"vitis/internal/transport.NewSim",
	"vitis/internal/transport.NewSyncHost",
	"vitis/internal/transport.ResolveError.Unwrap",
	"vitis/internal/transport.Sim",
	"vitis/internal/transport.UDP.Hello",
	"vitis/internal/transport.UDP.PeerAddr",
	"vitis/internal/transport.UDPCounters",
	"vitis/internal/transport/chaos.Controller.Heal",
	"vitis/internal/transport/chaos.Controller.Partition",
	"vitis/internal/transport/chaos.PartitionSpec",
	"vitis/internal/transport/chaos.Scenario",
	"vitis/internal/wire.Samples",
	"vitis/internal/wire.Types",
	"vitis/internal/workload.InterestOverlap",
	"vitis/internal/workload.RemapTrace",
	"vitis/internal/workload.TwitterStats",
}

// TestExportedNamesHaveReaders scans every non-test Go file of the module
// (bench/ is a separate module but counts as a reader) for exported
// top-level functions, methods and types whose name appears as an
// identifier in no other non-test file. Comments do not count, and the
// match is by name only, so a method is read wherever any value's method
// of that name is.
func TestExportedNamesHaveReaders(t *testing.T) {
	type decl struct{ name, key, file string }
	var decls []decl
	idents := map[string]map[string]bool{} // file -> identifiers it uses
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		used := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
		idents[file] = used
		if strings.HasPrefix(file, "bench"+string(filepath.Separator)) {
			return nil
		}
		pkg := path.Join("vitis", filepath.ToSlash(filepath.Dir(file)))
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if !dl.Name.IsExported() {
					continue
				}
				key := pkg + "." + dl.Name.Name
				if dl.Recv != nil {
					key = pkg + "." + recvName(dl.Recv.List[0].Type) + "." + dl.Name.Name
				}
				decls = append(decls, decl{dl.Name.Name, key, file})
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						decls = append(decls, decl{ts.Name.Name, pkg + "." + ts.Name.Name, file})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range decls {
		read := false
		for file, used := range idents {
			if file != d.file && used[d.name] {
				read = true
				break
			}
		}
		if !read {
			got = append(got, d.key)
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)
	for _, k := range got {
		if !slices.Contains(readerless, k) {
			t.Errorf("%s has no reader outside its own file: use it, delete it, or move it into a test file", k)
		}
	}
	for _, k := range readerless {
		if !slices.Contains(got, k) {
			t.Errorf("%s now has a reader or is gone: take it off readerless", k)
		}
	}
}

// recvName is the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
