package idde

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestStrategySaveLoadRoundTrip(t *testing.T) {
	sc := testScenario(t, 20)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := sc.LoadStrategy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Approach != IDDEG {
		t.Errorf("approach = %q", got.Approach)
	}
	if math.Abs(got.AvgRateMBps-st.AvgRateMBps) > 1e-9 ||
		math.Abs(got.AvgLatencyMs-st.AvgLatencyMs) > 1e-9 {
		t.Errorf("re-evaluated metrics differ: %v/%v vs %v/%v",
			got.AvgRateMBps, got.AvgLatencyMs, st.AvgRateMBps, st.AvgLatencyMs)
	}
	for j := 0; j < sc.Users(); j++ {
		s1, c1, ok1 := st.Assignment(j)
		s2, c2, ok2 := got.Assignment(j)
		if s1 != s2 || c1 != c2 || ok1 != ok2 {
			t.Fatalf("assignment differs for user %d", j)
		}
	}
	if len(got.Replicas()) != len(st.Replicas()) {
		t.Error("replica count differs")
	}
}

func TestStrategyRoundTripAllModes(t *testing.T) {
	sc := testScenario(t, 21)
	for _, name := range []ApproachName{IDDEG, SAA, CDP, DUPG} {
		st, err := sc.Solve(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := sc.LoadStrategy(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Mode must survive: latency is mode-dependent.
		if math.Abs(got.AvgLatencyMs-st.AvgLatencyMs) > 1e-9 {
			t.Errorf("%s: latency changed across round trip: %v vs %v",
				name, got.AvgLatencyMs, st.AvgLatencyMs)
		}
	}
}

func TestLoadStrategyRejectsCorruption(t *testing.T) {
	sc := testScenario(t, 22)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	save := func() string {
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := []struct {
		name string
		body string
	}{
		{"garbage", "{"},
		{"wrong mode", strings.Replace(save(), "collaborative", "teleporting", 1)},
		{"oob replica", strings.Replace(save(), `"replicas": [`, `"replicas": [[999,0],`, 1)},
	}
	for _, c := range cases {
		if _, err := sc.LoadStrategy(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Wrong scenario size.
	other, err := NewScenario(ScenarioConfig{Servers: 5, Users: 20, DataItems: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadStrategy(strings.NewReader(save())); err == nil {
		t.Error("strategy loaded into mismatched scenario")
	}
}

// TestLoadStrategyRejectsNegativeAllocation: Save writes unallocated
// users as null, so a non-null entry with a negative server or channel
// is malformed and must not load as "unallocated".
func TestLoadStrategyRejectsNegativeAllocation(t *testing.T) {
	sc := testScenario(t, 24)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, entry := range [][2]int{{-5, 3}, {-1, -1}, {0, -2}} {
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		doc["alloc"].([]any)[0] = entry
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.LoadStrategy(bytes.NewReader(body)); err == nil {
			t.Errorf("allocation entry %v accepted", entry)
		}
	}
}

func TestLoadStrategyRejectsDuplicateReplica(t *testing.T) {
	sc := testScenario(t, 23)
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reps := st.Replicas()
	if len(reps) == 0 {
		t.Skip("no replicas to duplicate")
	}
	dup := strings.Replace(buf.String(), `"replicas": [`,
		// Duplicate the first replica.
		`"replicas": [`+dupEntry(reps[0])+",", 1)
	if _, err := sc.LoadStrategy(strings.NewReader(dup)); err == nil {
		t.Error("duplicate replica accepted")
	}
}

func dupEntry(r Replica) string {
	return fmt.Sprintf("[%d,%d]", r.Server, r.Item)
}
