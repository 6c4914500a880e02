package contract

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lisa/internal/smt"
)

// ParseSpec compiles developer-authored semantics from the structured
// template the paper proposes in §5 ("provide developers with a structured
// prompt template to describe expected behaviors"): a line-oriented spec in
// which each rule pairs a natural-language description with a
// machine-checkable contract.
//
// State rule:
//
//	rule zk-ephemeral-manual
//	description: No client may create an ephemeral node on a closing session.
//	high-level: Every ephemeral node is deleted once its session ends.
//	target: DataTree.createEphemeral
//	within: PrepRequestProcessor.pRequest2TxnCreate   (optional)
//	bind: session = arg 1
//	bind: tree = receiver                             (zero or more binds)
//	require: session != null && session.closing == false
//
// Structural rule:
//
//	rule no-io-under-locks
//	description: No blocking I/O while a lock is held.
//	structural: no-blocking-io-in-sync
//	only: SyncRequestProcessor.serializeNode, ACLCache.serialize   (optional)
//
// Lines beginning with '#' are comments. Rules end at the next "rule" line
// or end of input. A structural rule takes no target, within, bind,
// require or ensure line. Every parsed rule is validated before being
// returned.
func ParseSpec(src string) ([]*Semantic, error) {
	var out []*Semantic
	var cur *Semantic
	var curLine int

	flush := func() error {
		if cur == nil {
			return nil
		}
		if cur.Structural == nil {
			cur.Kind = StateKind
		} else {
			cur.Kind = StructuralKind
			// FormatSpec writes none of these for a structural rule, so
			// accepting them would parse a rule its own spec cannot give.
			if cur.Target.Callee != "" || cur.Target.Within != "" || cur.Target.Bind != nil || cur.Pre != nil || cur.Post != nil {
				return ruleError(curLine, "structural rule %s takes no target, within, bind, require or ensure line", cur.ID)
			}
		}
		if err := cur.Validate(); err != nil {
			return ruleError(curLine, "%w", err)
		}
		out = append(out, cur)
		cur = nil
		return nil
	}

	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, ok := strings.CutPrefix(line, "rule "); ok {
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &Semantic{ID: strings.TrimSpace(name), Origin: []string{"developer-authored"}}
			curLine = lineNo
			continue
		}
		if cur == nil {
			return nil, lineError(lineNo, "%q appears before any \"rule\" line", line)
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, lineError(lineNo, "expected \"key: value\", got %q", line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "description":
			cur.Description = value
		case "high-level":
			cur.HighLevel = value
		case "target":
			cur.Target.Callee = value
		case "within":
			cur.Target.Within = value
		case "bind":
			slot, operand, err := parseBind(value)
			if err != nil {
				return nil, lineError(lineNo, "%w", err)
			}
			if cur.Target.Bind == nil {
				cur.Target.Bind = map[string]int{}
			}
			cur.Target.Bind[slot] = operand
		case "require":
			f, err := smt.ParsePredicate(value)
			if err != nil {
				return nil, lineError(lineNo, "%w", err)
			}
			cur.Pre = f
		case "ensure":
			f, err := smt.ParsePredicate(value)
			if err != nil {
				return nil, lineError(lineNo, "%w", err)
			}
			cur.Post = f
		case "structural":
			rule, ok := LockRuleNamed(value)
			if !ok {
				return nil, lineError(lineNo, "unknown structural rule %q", value)
			}
			cur.Structural = rule
		case "only":
			if cur.Structural == nil {
				return nil, lineError(lineNo, "\"only\" requires a preceding \"structural\" line")
			}
			cur.Structural.Only = map[string]bool{}
			for _, m := range strings.Split(value, ",") {
				cur.Structural.Only[strings.TrimSpace(m)] = true
			}
		default:
			return nil, lineError(lineNo, "unknown key %q", key)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, &ParseError{err: errors.New("spec: no rules found")}
	}
	return out, nil
}

// ParseError is a spec error at a line: the line of the offending entry,
// the "rule" line of a rule that fails as a whole, or 0 when the spec holds
// no rule. It unwraps to the predicate's *smt.ParseError (or its wrapped
// *minij.LexError), the bind error or the validation error behind it.
type ParseError struct {
	Line int
	err  error
}

// Error renders the error as "spec: line N: message", "spec: rule ending at
// line N: message" or "spec: no rules found".
func (e *ParseError) Error() string { return e.err.Error() }

// Unwrap returns the error behind e, or nil.
func (e *ParseError) Unwrap() error { return errors.Unwrap(e.err) }

// lineError returns a *ParseError at an entry's line; a %w verb in format
// names the error behind it.
func lineError(line int, format string, args ...any) error {
	return &ParseError{Line: line, err: fmt.Errorf("spec: line %d: "+format, append([]any{line}, args...)...)}
}

// ruleError returns a *ParseError for the rule whose "rule" line is line.
func ruleError(line int, format string, args ...any) error {
	return &ParseError{Line: line, err: fmt.Errorf("spec: rule ending at line %d: "+format, append([]any{line}, args...)...)}
}

// parseBind parses "slot = arg N" or "slot = receiver".
func parseBind(s string) (slot string, operand int, err error) {
	name, target, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, fmt.Errorf("bind must be \"slot = arg N\" or \"slot = receiver\", got %q", s)
	}
	slot = strings.TrimSpace(name)
	target = strings.TrimSpace(target)
	if target == "receiver" {
		return slot, ReceiverSlot, nil
	}
	numText, ok := strings.CutPrefix(target, "arg")
	if !ok {
		return "", 0, fmt.Errorf("bind target must be \"arg N\" or \"receiver\", got %q", target)
	}
	n, err := strconv.Atoi(strings.TrimSpace(numText))
	if err != nil || n < 0 {
		return "", 0, fmt.Errorf("bad argument index in %q", target)
	}
	return slot, n, nil
}

// FormatSpec renders semantics back into spec syntax, so mined rules can be
// exported for developer review and re-imported after editing.
func FormatSpec(sems []*Semantic) string {
	var sb strings.Builder
	for i, sem := range sems {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "rule %s\n", sem.ID)
		if sem.Description != "" {
			fmt.Fprintf(&sb, "description: %s\n", sem.Description)
		}
		if sem.HighLevel != "" {
			fmt.Fprintf(&sb, "high-level: %s\n", sem.HighLevel)
		}
		if sem.Kind == StructuralKind {
			fmt.Fprintf(&sb, "structural: %s\n", sem.Structural.Hazard.Rule())
			if len(sem.Structural.Only) > 0 {
				fmt.Fprintf(&sb, "only: %s\n", strings.Join(sem.Structural.Scope(), ", "))
			}
			continue
		}
		fmt.Fprintf(&sb, "target: %s\n", sem.Target.Callee)
		if sem.Target.Within != "" {
			fmt.Fprintf(&sb, "within: %s\n", sem.Target.Within)
		}
		var slots []string
		for slot := range sem.Target.Bind {
			slots = append(slots, slot)
		}
		sort.Strings(slots)
		for _, slot := range slots {
			idx := sem.Target.Bind[slot]
			if idx == ReceiverSlot {
				fmt.Fprintf(&sb, "bind: %s = receiver\n", slot)
			} else {
				fmt.Fprintf(&sb, "bind: %s = arg %d\n", slot, idx)
			}
		}
		if sem.Pre != nil {
			fmt.Fprintf(&sb, "require: %s\n", sem.Pre)
		}
		if sem.Post != nil {
			fmt.Fprintf(&sb, "ensure: %s\n", sem.Post)
		}
	}
	return sb.String()
}
