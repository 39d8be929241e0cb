package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/workload"
)

// TestTracedHandlerPreservesBehaviour runs every paper protocol wrapped and
// unwrapped on the same tasks, on the single-queue and the sharded kernel,
// with frame loss and ARQ so NACK re-routing is exercised too, and requires
// identical metrics.
func TestTracedHandlerPreservesBehaviour(t *testing.T) {
	var st setupTimes
	f, err := deployField(400, 700, 150, &st)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.GenerateBatch(seeded(3, streamTasks, 0), 400, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	engine := func(shards int) *sim.Engine {
		en := sim.NewEngine(f.nw, sim.DefaultRadioParams(), 100)
		en.SetViews(view.NewOracle(f.nw, f.pg))
		if err := en.SetFaults(sim.FaultPlan{LossRate: 0.1, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		if err := en.SetARQ(sim.DefaultARQ()); err != nil {
			t.Fatal(err)
		}
		if shards > 0 {
			if err := en.SetSharding(sim.ShardConfig{Shards: shards, Window: sim.Lookahead(en.Radio(), en.ARQ())}); err != nil {
				t.Fatal(err)
			}
		}
		return en
	}
	tr := newTracer()
	for _, name := range append(routing.PaperSet(), "MCFR") {
		mk := func(wrap bool) routing.Protocol {
			p, err := makeProto(f.nw, name, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if wrap {
				w := traceHandler(p, name, tr, -1, 0, &buildRecorder{})
				_, innerNack := p.(sim.NackHandler)
				_, wrapNack := w.(sim.NackHandler)
				_, innerRed := p.(sim.RedundantHandler)
				_, wrapRed := w.(sim.RedundantHandler)
				if innerNack != wrapNack || innerRed != wrapRed || p.Name() != w.Name() {
					t.Fatalf("%s: wrapper changes the handler's interfaces or name", name)
				}
				return w
			}
			return p
		}
		single := func(wrap bool) []sim.TaskMetrics {
			en := engine(0)
			var out []sim.TaskMetrics
			for _, task := range tasks {
				out = append(out, en.RunTask(mk(wrap), task.Source, task.Dests))
			}
			return out
		}
		if plain, traced := single(false), single(true); !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: single-queue metrics differ when traced", name)
		}
		sharded := func(wrap bool) []sim.SessionMetrics {
			script := make([]sim.Session, len(tasks))
			for i, task := range tasks {
				script[i] = sim.Session{Start: float64(i) * 0.001, Handler: mk(wrap), Src: task.Source, Dests: task.Dests}
			}
			return engine(2).RunScript(script)
		}
		if plain, traced := sharded(false), sharded(true); !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: sharded metrics differ when traced", name)
		}
	}
	if lt := tr.layers(); lt["routing.GMP"] == nil || lt["routing.GMP"].count == 0 {
		t.Fatal("no GMP decision was traced")
	}
}

// stubServer answers requests asynchronously. Request stallAt blocks the
// sender for stall before it goes out; the others listed get a SHED, an
// ERROR, no answer at all, or a failed send.
type stubServer struct {
	g                              *generator
	stallAt, shedAt, errAt, silent int
	failAt                         int
	stall                          time.Duration
	wg                             sync.WaitGroup
}

func (s *stubServer) send(id uint64, i int) error {
	switch i {
	case s.stallAt:
		time.Sleep(s.stall)
	case s.failAt:
		return errors.New("connection reset")
	case s.silent:
		return nil
	}
	out := outOK
	switch i {
	case s.shedAt:
		out = outShed
	case s.errAt:
		out = outError
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		time.Sleep(time.Millisecond)
		s.g.complete(id, out, 16)
	}()
	return nil
}

func TestGeneratorChargesFromDueTime(t *testing.T) {
	g := newGenerator()
	stub := &stubServer{g: g, stallAt: 5, stall: 120 * time.Millisecond,
		shedAt: 20, errAt: 21, silent: 22, failAt: 23}
	const rate, n = 200.0, 40 // one request every 5 ms
	ph := g.run([]sender{stub}, rate, n, 300*time.Millisecond)
	stub.wg.Wait()

	// Request 6 was due 5 ms after the stalled one and the stub answers in
	// about 1 ms, yet it is charged the stall: latency counts from its due
	// time, not from when the stalled generator got to send it.
	if ph.lat[6] < 100 {
		t.Errorf("request behind the stall charged %.1f ms, want ≥ 100 ms from its due time", ph.lat[6])
	}
	if ph.lat[30] > 50 {
		t.Errorf("request long after the stall charged %.1f ms", ph.lat[30])
	}
	if late := quantile(ph.late, 1); late < 100 {
		t.Errorf("generator lateness %.1f ms, want the ≥ 100 ms stall reported", late)
	}
	if ph.backlogMax.Load() < 20 {
		t.Errorf("backlog max %d, want the ~24 requests that fell due during the stall", ph.backlogMax.Load())
	}
	want := [numOutcomes]int{outOK: n - 4, outShed: 1, outError: 1, outTransport: 1, outTimeout: 1}
	if ph.outcomes != want {
		t.Errorf("outcomes %v, want %v", ph.outcomes, want)
	}
	if ph.failed() != 4 {
		t.Errorf("failed %d, want 4", ph.failed())
	}
	for _, i := range []int{20, 21, 22, 23} {
		if !math.IsInf(ph.lat[i], 1) {
			t.Errorf("failed request %d has latency %.1f, want +Inf", i, ph.lat[i])
		}
	}
	if len(g.expired) != 1 || g.dupes != 0 {
		t.Errorf("ledger: %d unanswered, %d duplicates; want 1 and 0", len(g.expired), g.dupes)
	}
	if p95 := quantile(ph.lat, 0.95); !math.IsInf(p95, 1) {
		t.Errorf("p95 = %.1f ms with 10%% of requests failed, want +Inf", p95)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{name: "run", parent: -1, start: 0, end: 100},
		{name: "child", parent: 0, start: 10, end: 40},
		{name: "child", parent: 0, start: 30, end: 60}, // overlaps: a second lane
		{name: "child", parent: 0, start: 80, end: 90},
	}
	lt := tr.layers()
	if got := lt["run"].self; got != 40 {
		t.Errorf("run self = %d, want 100 - (50 + 10) = 40", got)
	}
	if got := lt["child"].busy; got != 70 {
		t.Errorf("child busy = %d, want 70 (summed across lanes)", got)
	}
	if got := tr.union(func(name string) bool { return name == "child" }); got != 60 {
		t.Errorf("child wall = %d, want 60", got)
	}
}

// TestBenchmarkJSONNamesTheMetrics keeps BENCHMARK.json and the metric
// lists the program reports in step.
func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
		}
		units := map[string]string{}
		for _, d := range want {
			units[d.name] = d.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) is not reported with that unit", what, m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
