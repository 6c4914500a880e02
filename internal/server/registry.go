package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/program"
	"lisa/internal/ticket"
)

// registryNamespace is the store namespace of case registry records: one
// record per case, holding the rules processing its tickets registered.
const registryNamespace = "reg.v1"

// registryVersion is the sha256 of testdata/registry.golden, every corpus
// case's record payload. It is part of each record's key, so a change to
// inference or cross-checking that alters any corpus registry must
// regenerate the golden and re-key every record: an old record then reads
// as absent, never as a wrong rule set (TestRegistryVersionIsGoldenHash).
const registryVersion = "819e912aee82241dbd79a372ac45c88806fe31f95167054116dc556c6007f27c"

// registryRecord is a case's registry as the store holds it: what a case
// runtime's build would otherwise derive by processing every ticket.
type registryRecord struct {
	// Registered is the registration lines processing the tickets printed
	// (caseRuntime.registered).
	Registered string `json:"registered"`
	// Spec is contract.FormatSpec of the registered rules, in registry
	// order.
	Spec string `json:"spec"`
	// Origins is each rule's Origin, in the same order: the spec does not
	// carry it, and contract.ParseSpec marks every rule developer-authored.
	Origins [][]string `json:"origins"`
}

// inferRegistry processes every ticket of cs on e, registering the rules
// inference and the cross-check keep, and returns the registration lines:
// one per registered rule and one per re-derived known rule.
func inferRegistry(e *core.Engine, cs *ticket.Case) (string, error) {
	var reg strings.Builder
	for _, tk := range cs.Tickets {
		rep, err := e.ProcessTicket(tk)
		if err != nil {
			return "", fmt.Errorf("process %s: %w", tk.ID, err)
		}
		for _, sem := range rep.Registered {
			fmt.Fprintf(&reg, "registered %s\n", sem)
		}
		for _, sem := range rep.AlreadyKnown {
			fmt.Fprintf(&reg, "ticket %s re-derives known rule %s\n", tk.ID, sem.ID)
		}
	}
	return reg.String(), nil
}

// encodeRegistry renders the record of a registry and its registration
// lines: indented JSON without HTML escaping, so the golden of every
// corpus record reads as the rules it holds.
func encodeRegistry(registered string, reg *contract.Registry) []byte {
	sems := reg.All()
	rec := registryRecord{Registered: registered, Spec: contract.FormatSpec(sems), Origins: make([][]string, len(sems))}
	for i, sem := range sems {
		rec.Origins[i] = sem.Origin
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	enc.Encode(rec)
	return buf.Bytes()
}

// restoreRegistry decodes a registry record into a fresh registry and
// returns it with the record's registration lines. Restoring is
// contract.ParseSpec, each rule's Origin set, then Registry.Add in order.
// A decode or parse error, a spec that does not format back to itself, an
// origin count that does not match the rules, or a failed Add refuses
// the record (ok=false); the caller then infers again.
func restoreRegistry(raw []byte) (reg *contract.Registry, registered string, ok bool) {
	var rec registryRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, "", false
	}
	sems, err := contract.ParseSpec(rec.Spec)
	if err != nil || len(sems) != len(rec.Origins) || contract.FormatSpec(sems) != rec.Spec {
		return nil, "", false
	}
	reg = contract.NewRegistry()
	for i, sem := range sems {
		sem.Origin = rec.Origins[i]
		if err := reg.Add(sem); err != nil {
			return nil, "", false
		}
	}
	return reg, rec.Registered, true
}

// registryKey is the store key of cs's registry record under version
// (the server reads and writes registryVersion): a digest of every field
// of every ticket, in ticket order.
func registryKey(version string, cs *ticket.Case) string {
	parts := []string{"registry", version}
	for _, tk := range cs.Tickets {
		parts = append(parts, tk.ID, tk.Title, tk.Description, strconv.Itoa(len(tk.Discussion)))
		parts = append(parts, tk.Discussion...)
		parts = append(parts, tk.BuggySource, tk.FixedSource, strconv.Itoa(len(tk.RegressionTests)))
		for _, tc := range tk.RegressionTests {
			parts = append(parts, tc.Name, tc.Description, tc.Source, tc.Class, tc.Method)
		}
	}
	return program.HashParts(parts...)
}
