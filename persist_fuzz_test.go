package idde

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadStrategy feeds arbitrary bytes to LoadStrategy. It must never
// panic; whatever it accepts must pass model.Check, and a Save → Load →
// Save cycle of an accepted strategy must reproduce the same bytes.
// The seeds are a saved IDDE-G strategy plus malformed variants of it.
//
//	go test -run '^$' -fuzz FuzzLoadStrategy -fuzztime 20s .
func FuzzLoadStrategy(f *testing.F) {
	sc, err := NewScenario(ScenarioConfig{Servers: 6, Users: 24, DataItems: 3, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	st, err := sc.Solve(IDDEG, 0)
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := st.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	// variant re-encodes the saved strategy after edit mutates it.
	variant := func(edit func(doc map[string]any)) {
		var doc map[string]any
		if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
			f.Fatal(err)
		}
		edit(doc)
		b, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	variant(func(doc map[string]any) { // wrong length
		alloc := doc["alloc"].([]any)
		doc["alloc"] = alloc[:len(alloc)-1]
	})
	variant(func(doc map[string]any) { doc["deliveryMode"] = "teleporting" })
	variant(func(doc map[string]any) { // out-of-range replica
		doc["replicas"] = append(doc["replicas"].([]any), []int{sc.Servers(), 0})
	})
	variant(func(doc map[string]any) { // duplicate replica
		reps, _ := doc["replicas"].([]any)
		if len(reps) > 0 {
			doc["replicas"] = append(reps, reps[0])
		}
	})
	variant(func(doc map[string]any) { doc["alloc"].([]any)[0] = []int{-5, 3} })
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := sc.LoadStrategy(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := sc.in.Check(got.raw); err != nil {
			t.Fatalf("accepted strategy fails Check: %v", err)
		}
		var first bytes.Buffer
		if err := got.Save(&first); err != nil {
			t.Fatalf("saving an accepted strategy: %v", err)
		}
		again, err := sc.LoadStrategy(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved strategy: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("saving a reloaded strategy: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save changed the bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
