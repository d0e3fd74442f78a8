package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/sim"
)

// rawPolicyJSON and rawAgentState are the documents Policy.Save and
// AgentState.Save wrote before the Q-table became a field of the document:
// the table written on its own by mdp.QTable.Save and embedded as a
// json.RawMessage, which the encoder scanned again and compacted, and read
// back by decoding the RawMessage and then LoadQTable. The qtable field
// shadows the embedded document's and, like it, comes last, so the field
// order is the one the old documents had. TestSaveLoadMatchesRawMessagePath
// holds the one-pass path to them byte for byte.
type rawPolicyJSON struct {
	policyJSON
	QTable *json.RawMessage `json:"qtable"`
}

type rawAgentState struct {
	AgentState
	QTable json.RawMessage `json:"qtable"`
}

// rawQTable is what the RawMessage path embedded: QTable.Save's output.
func rawQTable(t *testing.T, q *mdp.QTable) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encode is one json.Encoder pass over v, as AgentState.Save makes and as
// Policy.Save made before it wrote its rows by hand.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceDocument is the policy's document as the reflection path built
// it: the rows in a map keyed by the lattice's state keys, for the encoder
// to sort.
func referenceDocument(p *Policy) policyJSON {
	keys := p.lattice.States()
	rows := make(map[string][]float64, len(keys))
	for ord, key := range keys {
		rows[key] = p.rowAt(nil, ord)
	}
	return policyJSON{
		policyHeader: p.header(),
		QTable:       &mdp.QTableJSON{Actions: p.lattice.Actions(), Rows: rows},
	}
}

// referenceSave is Policy.Save by reflection, the oracle for its bytes: one
// json.Encoder pass over referenceDocument.
func referenceSave(t testing.TB, p *Policy) []byte {
	t.Helper()
	return encode(t, referenceDocument(p))
}

// checkSaveMatchesReference holds p's Save bytes to referenceSave's.
func checkSaveMatchesReference(t testing.TB, p *Policy) []byte {
	t.Helper()
	var got bytes.Buffer
	if err := p.Save(&got); err != nil {
		t.Fatal(err)
	}
	if want := referenceSave(t, p); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Save differs from the encoding/json reference:\n%s\nvs\n%s", got.Bytes(), want)
	}
	return got.Bytes()
}

// randomValue spans the magnitudes and forms a Q-value's JSON rendering takes:
// exact integers, zero, negative zero, and mantissas from 1e-20 to 1e20.
func randomValue(rng *sim.RNG) float64 {
	switch rng.Intn(8) {
	case 0:
		return float64(rng.Intn(2001) - 1000)
	case 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	}
	return rng.NormFloat64(0, 1) * math.Pow(10, float64(rng.Intn(41)-20))
}

// randomTable fills keys' rows of a fresh table with random values.
func randomTable(rng *sim.RNG, actions int, keys []string) *mdp.QTable {
	q := mdp.NewQTable(actions, randomValue(rng))
	for _, key := range keys {
		row := q.Row(key)
		for a := range row {
			row[a] = randomValue(rng)
		}
	}
	return q
}

// decodeQTable is the RawMessage path's table decode: the embedded
// QTable.Save document, through QTableJSON.Table.
func decodeQTable(t *testing.T, raw json.RawMessage) *mdp.QTable {
	t.Helper()
	var d mdp.QTableJSON
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	q, err := d.Table()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// policyTable is the policy's group Q-values as the string-keyed table a
// policy held before they moved into the ordinal slab: each lattice state's
// row under its key, initial value zero.
func policyTable(p *Policy) *mdp.QTable {
	q := mdp.NewQTable(p.lattice.Actions(), 0)
	for ord, key := range p.lattice.States() {
		copy(q.Row(key), p.rowAt(nil, ord))
	}
	return q
}

// randomKey is a state key, now and then with characters the encoder escapes.
func randomKey(rng *sim.RNG, space *config.Space) string {
	key := randomConfig(space, rng).Key()
	if rng.Intn(4) == 0 {
		key += []string{"<", ">", "&", " ", "\"", "\\", "é"}[rng.Intn(7)]
	}
	return key
}

// TestSaveLoadMatchesRawMessagePath: Policy.Save and AgentState.Save, which
// write the Q-table as a field of the document in one pass, write the bytes
// the RawMessage path wrote (and Policy.Save the bytes of its encoding/json
// reference), and LoadPolicy and LoadAgentState, which decode it in the same
// pass, read back the tables and fields that path read — for random tables
// and random agent states.
func TestSaveLoadMatchesRawMessagePath(t *testing.T) {
	space := config.Default()
	actions := len(config.Actions(space))
	rng := sim.NewRNG(0x5a7e)
	p := bowlPolicyForPersist(t, space)
	trained := *p

	for i := 0; i < 3; i++ {
		// Random value vectors, each sweep direction: the table they derive
		// is a solve's output in form, with random values.
		p.v = make([]float64, len(trained.v))
		for k := range p.v {
			p.v[k] = randomValue(rng)
		}
		p.forward = i%2 == 0
		got := checkSaveMatchesReference(t, p)
		raw := rawQTable(t, policyTable(p))
		want := encode(t, rawPolicyJSON{policyJSON: referenceDocument(p), QTable: &raw})
		if !bytes.Equal(got, want) {
			t.Fatalf("policy %d: one-pass Save differs from the RawMessage path:\n%s\nvs\n%s", i, got, want)
		}
		loaded, err := LoadPolicy(bytes.NewReader(want), space)
		if err != nil {
			t.Fatal(err)
		}
		var old rawPolicyJSON
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatal(err)
		}
		oldQ := decodeQTable(t, *old.QTable)
		if !bytes.Equal(rawQTable(t, policyTable(loaded)), rawQTable(t, oldQ)) {
			t.Fatalf("policy %d: LoadPolicy reads a different table than the RawMessage path", i)
		}
	}
	*p = trained

	for i := 0; i < 24; i++ {
		keys := make([]string, rng.Intn(40))
		for k := range keys {
			keys[k] = randomKey(rng, space)
		}
		st := &AgentState{
			Version:    AgentStateVersion,
			Iteration:  rng.Intn(1000),
			Config:     randomConfig(space, rng),
			Samples:    map[string]float64{},
			Violations: rng.Intn(4),
			LastRT:     randomValue(rng),
			AgentRNG:   rng.Uint64(),
			LearnerRNG: rng.Uint64(),
		}
		for _, key := range keys[:len(keys)/2] {
			st.Samples[key] = randomValue(rng)
		}
		for k := rng.Intn(5); k > 0; k-- {
			st.Window = append(st.Window, randomValue(rng))
		}
		if rng.Intn(2) == 0 {
			st.PolicyName, st.LastGood = "ctx<1>", randomConfig(space, rng)
		}
		q := randomTable(rng, actions, keys)
		st.QTable = q.JSON()

		var got bytes.Buffer
		if err := st.Save(&got); err != nil {
			t.Fatal(err)
		}
		want := encode(t, rawAgentState{AgentState: *st, QTable: rawQTable(t, q)})
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("state %d: one-pass Save differs from the RawMessage path:\n%s\nvs\n%s", i, got.Bytes(), want)
		}
		loaded, err := LoadAgentState(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		var old rawAgentState
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatal(err)
		}
		oldQ := decodeQTable(t, old.QTable)
		newQ, err := loaded.QTable.Table()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawQTable(t, newQ), rawQTable(t, oldQ)) {
			t.Fatalf("state %d: LoadAgentState reads a different table than the RawMessage path", i)
		}
		loaded.QTable, old.AgentState.QTable = nil, nil
		if !reflect.DeepEqual(*loaded, old.AgentState) {
			t.Fatalf("state %d: LoadAgentState reads %+v, the RawMessage path %+v", i, *loaded, old.AgentState)
		}
	}
}

// jsonFloatEdges are the floats at the edges of encoding/json's number
// forms: signed zero, the smallest subnormal, both sides of the 1e-6 and
// 1e21 switches to exponent form, and the largest finite magnitudes.
var jsonFloatEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 9.99e-7, -9.99e-7, 1e-6, -1e-6,
	1e-7, 1.5e-10, 1e20, 1e21, -1e21, 1.0000000000000001e21, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 1, -1, 0.1, 123456789.125,
}

// TestAppendJSONFloat holds Save's float formatting to json.Marshal on the
// edge table and on random bit patterns (the non-finite ones skipped).
func TestAppendJSONFloat(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte("x"), f); string(got[1:]) != string(want) || got[0] != 'x' {
			t.Fatalf("%b: appended %q, encoding/json writes %q", math.Float64bits(f), got[1:], want)
		}
	}
	for _, f := range jsonFloatEdges {
		check(f)
	}
	rng := sim.NewRNG(0xf10a7)
	for i := 0; i < 10000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
}

// TestAppendJSONString holds Save's key writer to json.Marshal on strings
// that need no escape and on strings with every kind the encoder escapes.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{
		"", "150,300,5,15,40,20,50,2000", "a\"b", `a\b`, "a<b", "a>b", "a&b", "\x00", "\x1f",
		"\x7f", "é", "\u2028", "\u2029", "\xff\xfe", "tab\there", "ctx<1>",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: appended %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestSaveEdgeFloats: a policy whose Q-table holds the edge floats, each
// repeated so the memo serves copies, saves to its reference bytes.
func TestSaveEdgeFloats(t *testing.T) {
	space := fuzzSpace()
	p, _ := trainFlat(t, space)
	for i := range p.v {
		p.v[i] = jsonFloatEdges[i%len(jsonFloatEdges)]
	}
	checkSaveMatchesReference(t, p)
}

// TestSaveRejectsNonFinite: a policy holding NaN or ±Inf, in its Q-table or
// its header, makes Save fail without writing a byte.
func TestSaveRejectsNonFinite(t *testing.T) {
	space := fuzzSpace()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p, _ := trainFlat(t, space)
		p.v[len(p.v)/4] = bad // a value before the last sweep: its state's Keep entry
		var buf bytes.Buffer
		if err := p.Save(&buf); err == nil || buf.Len() != 0 {
			t.Fatalf("Q-value %v: Save wrote %d bytes, error %v", bad, buf.Len(), err)
		}
		p, _ = trainFlat(t, space)
		p.floorRT = bad
		if err := p.Save(&buf); err == nil || buf.Len() != 0 {
			t.Fatalf("floor %v: Save wrote %d bytes, error %v", bad, buf.Len(), err)
		}
	}
}
