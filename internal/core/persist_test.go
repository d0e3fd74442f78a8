package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/mdp"
	"github.com/rac-project/rac/internal/regression"
	"github.com/rac-project/rac/internal/sim"
)

// rawAgentState is the document AgentState.Save wrote before the Q-table
// became a field of the document: the table written on its own by
// mdp.QTable.Save and embedded as a json.RawMessage, which the encoder
// scanned again and compacted, and read back by decoding the RawMessage and
// then LoadQTable. The qtable field shadows the embedded document's and,
// like it, comes last, so the field order is the one the old documents had.
// TestSaveLoadMatchesRawMessagePath holds the one-pass path to it byte for
// byte.
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

// encode is one json.Encoder pass over v, as AgentState.Save and
// Policy.Save make.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstFormat is p's document in the first policy format, the bytes its
// Save wrote then: the header, no version, schedule or digest, and every row
// of the group Q-table in a map keyed by state, through encoding/json.
func firstFormat(t testing.TB, p *Policy) []byte {
	t.Helper()
	var doc policyJSON
	if err := json.Unmarshal(saveBytes(t, p), &doc); err != nil {
		t.Fatal(err)
	}
	keys := p.lattice.States()
	rows := make(map[string][]float64, len(keys))
	for ord, key := range keys {
		rows[key] = p.rowAt(nil, ord)
	}
	doc.Version, doc.Batch, doc.Digest = 0, nil, ""
	doc.QTable = &mdp.QTableJSON{Actions: p.lattice.Actions(), Rows: rows}
	return encode(t, doc)
}

// saveBytes is p's Save output.
func saveBytes(t testing.TB, p *Policy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// QTable.Save document.
func decodeQTable(t *testing.T, raw json.RawMessage) *mdp.QTableJSON {
	t.Helper()
	var d mdp.QTableJSON
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return &d
}

// randomKey is a state key, now and then with characters the encoder escapes.
func randomKey(rng *sim.RNG, space *config.Space) string {
	key := randomConfig(space, rng).Key()
	if rng.Intn(4) == 0 {
		key += []string{"<", ">", "&", " ", "\"", "\\", "é"}[rng.Intn(7)]
	}
	return key
}

// TestSaveLoadMatchesRawMessagePath: AgentState.Save, which writes the
// Q-table as a field of the document in one pass, writes the bytes the
// RawMessage path wrote, and LoadAgentState, which decodes it in the same
// pass, reads back the table and fields that path read — for random
// version-1 agent states, the ones that held a Q-table.
func TestSaveLoadMatchesRawMessagePath(t *testing.T) {
	space := config.Default()
	actions := len(config.Actions(space))
	rng := sim.NewRNG(0x5a7e)
	for i := 0; i < 24; i++ {
		keys := make([]string, rng.Intn(40))
		for k := range keys {
			keys[k] = randomKey(rng, space)
		}
		st := &AgentState{
			Version:    1,
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
		if !bytes.Equal(encode(t, loaded.QTable), encode(t, decodeQTable(t, old.QTable))) {
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

// TestSaveEdgeFloats: every header float Save writes reads back to the same
// bits — the edge floats as regression coefficients and floor RT — so a
// loaded policy prices the rewards, and solves to the digest, it was saved
// with.
func TestSaveEdgeFloats(t *testing.T) {
	space := fuzzSpace()
	p, _ := trainFlat(t, space)
	dim := p.groups.Space().Len()
	n := 1 + dim + dim*(dim+1)/2
	for i, f := range jsonFloatEdges {
		coeffs := make([]float64, n)
		for k := range coeffs {
			coeffs[k] = jsonFloatEdges[(i+k)%len(jsonFloatEdges)]
		}
		quad, err := regression.QuadraticFromCoeffs(dim, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		p.quad, p.floorRT = quad, f
		var doc policyJSON
		if err := json.Unmarshal(saveBytes(t, p), &doc); err != nil {
			t.Fatal(err)
		}
		for k, c := range append(coeffs, f) {
			got := append(doc.Coeffs, doc.FloorRT)[k]
			if math.Float64bits(got) != math.Float64bits(c) {
				t.Fatalf("header float %d: saved %v reads back as %v", k, c, got)
			}
		}
	}
}

// TestSaveRejectsNonFinite: a policy whose header holds NaN or ±Inf — its
// floor RT, SLA or a regression coefficient — makes Save fail without
// writing a byte, and a document whose surface solves to a non-finite value
// does not load.
func TestSaveRejectsNonFinite(t *testing.T) {
	space := fuzzSpace()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, spoil := range map[string]func(p *Policy){
			"floor": func(p *Policy) { p.floorRT = bad },
			"SLA":   func(p *Policy) { p.sla = bad },
			"coefficient": func(p *Policy) {
				coeffs := p.quad.Coeffs()
				coeffs[1] = bad
				p.quad, _ = regression.QuadraticFromCoeffs(p.quad.Dim(), coeffs)
			},
		} {
			p, _ := trainFlat(t, space)
			spoil(p)
			var buf bytes.Buffer
			if err := p.Save(&buf); err == nil || buf.Len() != 0 {
				t.Fatalf("%s %v: Save wrote %d bytes, error %v", name, bad, buf.Len(), err)
			}
		}
	}
	// A constant term of 1000 predicts e^1000 = +Inf for every state: each
	// reward and value is -Inf.
	_, saved := trainFlat(t, space)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(saved, &doc); err != nil {
		t.Fatal(err)
	}
	doc["regressionCoeffs"] = json.RawMessage("[1000,0,0,0,0,0]")
	_, err := LoadPolicy(bytes.NewReader(encode(t, doc)), space)
	if err == nil || !strings.Contains(err.Error(), "solves to -Inf") {
		t.Fatalf("a surface predicting +Inf everywhere: error %v, want a non-finite solve", err)
	}
}

// TestLoadPolicyRejectsTamperedDocument: a version-2 document whose digest,
// regression coefficient, floor RT or SLA was changed is refused with
// ErrPolicyDigest.
func TestLoadPolicyRejectsTamperedDocument(t *testing.T) {
	space := fuzzSpace()
	_, saved := trainFlat(t, space)
	for name, tamper := range map[string]func(doc *policyJSON){
		"digest":      func(doc *policyJSON) { doc.Digest = strings.Repeat("0", len(doc.Digest)) },
		"coefficient": func(doc *policyJSON) { doc.Coeffs[0] += 1e-9 },
		"floor RT":    func(doc *policyJSON) { doc.FloorRT *= 1.5 },
		"SLA":         func(doc *policyJSON) { doc.SLA *= 1.5 },
	} {
		var doc policyJSON
		if err := json.Unmarshal(saved, &doc); err != nil {
			t.Fatal(err)
		}
		tamper(&doc)
		if _, err := LoadPolicy(bytes.NewReader(encode(t, doc)), space); !errors.Is(err, ErrPolicyDigest) {
			t.Errorf("tampered %s: error %v, want ErrPolicyDigest", name, err)
		}
	}
}

// TestOfflineScheduleBounded: an offline schedule that would not solve in
// bounded time — a sweep bound of 2^40 with a threshold of 0, or γ = 1 — is
// refused before any sampling or sweep, by training and by a policy
// document alike (a fleet registry recipe trains through the first).
func TestOfflineScheduleBounded(t *testing.T) {
	space := fuzzSpace()
	_, saved := trainFlat(t, space)
	forever, undiscounted := DefaultOfflineBatch(), DefaultOfflineBatch()
	forever.MaxSweeps, forever.Theta = 1<<40, 0
	undiscounted.Params.Gamma = 1
	for name, batch := range map[string]mdp.BatchConfig{"2^40 sweeps": forever, "γ = 1": undiscounted} {
		sampled := false
		_, err := learnPolicy("x", space, func(config.Config) (float64, error) {
			sampled = true
			return 1, nil
		}, InitOptions{CoarseLevels: 2, Batch: batch})
		if err == nil || sampled {
			t.Errorf("%s: training returned error %v after sampling: %t", name, err, sampled)
		}
		var doc policyJSON
		if err := json.Unmarshal(saved, &doc); err != nil {
			t.Fatal(err)
		}
		doc.Batch = &batch
		if _, err := LoadPolicy(bytes.NewReader(encode(t, doc)), space); err == nil || !strings.Contains(err.Error(), "offline schedule") {
			t.Errorf("%s: a policy document loads with error %v", name, err)
		}
	}
}

// compatPolicyVersions are the policy formats of the committed corpus,
// testdata/compat/policy/<version>/policy.json: v1 is a first-format
// document as that format's Save wrote it, v2 Save's document. Both hold one
// policy: coarse-3 over a bowl on fuzzSpace under the default schedule. A
// format change adds a version and edits none; deleting one drops support
// for it.
var compatPolicyVersions = []string{"v1", "v2"}

// readCompatPolicy returns the corpus's document of one format version.
func readCompatPolicy(tb testing.TB, version string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "compat", "policy", version, "policy.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestPolicyCompatCorpus: each committed policy format loads to the pinned
// digest and writes its own bytes back — Save for v2, firstFormat for v1.
// amd64 only: other architectures fuse multiply-adds, so a solve there need
// not reproduce the rows or digest an amd64 build recorded.
func TestPolicyCompatCorpus(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the corpus's digest is pinned for amd64 floating point")
	}
	const digest = "2b6445dd5a798fe693fe43b52f10e75714f8785b75610c30aefb5870ce0fab26"
	space := fuzzSpace()
	for _, version := range compatPolicyVersions {
		data := readCompatPolicy(t, version)
		p, err := LoadPolicy(bytes.NewReader(data), space)
		if err != nil {
			t.Fatalf("%s: %v", version, err)
		}
		if got := p.Digest(); got != digest {
			t.Errorf("%s: digest %s, want %s", version, got, digest)
		}
		again := saveBytes(t, p)
		if version == "v1" {
			again = firstFormat(t, p)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: the loaded policy writes\n%s\nnot\n%s", version, again, data)
		}
	}
}
