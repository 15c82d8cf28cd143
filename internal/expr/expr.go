// Package expr implements RowExpression, the self-contained expression
// representation the paper introduces for connector pushdown (§IV.B,
// Table I). Unlike an AST, a RowExpression carries full type information and
// a serializable FunctionHandle for every call, so an expression can be
// shipped to a connector (or another system) and evaluated there without
// re-resolution.
//
// The five subtypes of Table I are ConstantExpression,
// VariableReferenceExpression, CallExpression, SpecialFormExpression and
// LambdaDefinitionExpression.
package expr

import (
	"fmt"
	"strings"

	"prestolite/internal/types"
)

// RowExpression is a typed, self-contained expression node.
type RowExpression interface {
	// TypeOf returns the expression's result type.
	TypeOf() *types.Type
	// String renders a human-readable form (used by EXPLAIN).
	String() string
	isRowExpression()
}

// Constant is a literal value such as (1, BIGINT) or ('sf', VARCHAR).
// Values use the block boxing convention; nil is SQL NULL.
type Constant struct {
	Value any
	Type  *types.Type
}

func (c *Constant) TypeOf() *types.Type { return c.Type }
func (c *Constant) isRowExpression()    {}

func (c *Constant) String() string {
	if c.Value == nil {
		return "null"
	}
	if c.Type.Kind == types.KindVarchar {
		return fmt.Sprintf("'%v'", c.Value)
	}
	return fmt.Sprintf("%v", c.Value)
}

// Variable references an input channel of the operator's input page —
// "a reference to an input column / a field of the output from the previous
// relation expression" (Table I).
type Variable struct {
	Name    string
	Channel int
	Type    *types.Type
}

func (v *Variable) TypeOf() *types.Type { return v.Type }
func (v *Variable) isRowExpression()    {}
func (v *Variable) String() string      { return v.Name }

// FunctionHandle stores function-resolution information in the expression
// itself (§IV.B: "we resolve this by storing function resolution information
// in the expression representation itself as a serializable functionHandle").
type FunctionHandle struct {
	Name       string
	ArgTypes   []string // SQL type strings
	ReturnType string
}

// Call is a function invocation: arithmetic, casts, UDFs, geo functions.
type Call struct {
	Handle FunctionHandle
	Args   []RowExpression
	Ret    *types.Type
}

func (c *Call) TypeOf() *types.Type { return c.Ret }
func (c *Call) isRowExpression()    {}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	// render operators infix for readability
	if op, ok := infixNames[c.Handle.Name]; ok && len(args) == 2 {
		return "(" + args[0] + " " + op + " " + args[1] + ")"
	}
	return c.Handle.Name + "(" + strings.Join(args, ", ") + ")"
}

var infixNames = map[string]string{
	"add": "+", "subtract": "-", "multiply": "*", "divide": "/", "modulus": "%",
	"eq": "=", "neq": "<>", "lt": "<", "lte": "<=", "gt": ">", "gte": ">=",
	"like": "LIKE",
}

// Form enumerates the special built-in forms (Table I: IN, IF, IS_NULL, AND,
// DEREFERENCE, ...).
type Form string

const (
	FormAnd         Form = "AND"
	FormOr          Form = "OR"
	FormNot         Form = "NOT"
	FormIn          Form = "IN"
	FormIf          Form = "IF"
	FormIsNull      Form = "IS_NULL"
	FormCoalesce    Form = "COALESCE"
	FormDereference Form = "DEREFERENCE"
	FormBetween     Form = "BETWEEN"
)

// SpecialForm is a special built-in call with non-function semantics
// (short-circuiting, null handling, field access).
type SpecialForm struct {
	Form Form
	Args []RowExpression
	Ret  *types.Type
}

func (s *SpecialForm) TypeOf() *types.Type { return s.Ret }
func (s *SpecialForm) isRowExpression()    {}

func (s *SpecialForm) String() string {
	switch s.Form {
	case FormAnd, FormOr:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, " "+string(s.Form)+" ") + ")"
	case FormNot:
		return "(NOT " + s.Args[0].String() + ")"
	case FormIsNull:
		return "(" + s.Args[0].String() + " IS NULL)"
	case FormDereference:
		return s.Args[0].String() + "." + s.Args[1].(*Constant).Value.(string)
	case FormIn:
		parts := make([]string, len(s.Args)-1)
		for i, a := range s.Args[1:] {
			parts[i] = a.String()
		}
		return "(" + s.Args[0].String() + " IN (" + strings.Join(parts, ", ") + "))"
	case FormBetween:
		return "(" + s.Args[0].String() + " BETWEEN " + s.Args[1].String() + " AND " + s.Args[2].String() + ")"
	default:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = a.String()
		}
		return string(s.Form) + "(" + strings.Join(parts, ", ") + ")"
	}
}

// Lambda is an anonymous function definition, e.g.
// (x bigint, y bigint) -> x + y.
type Lambda struct {
	Params     []string
	ParamTypes []*types.Type
	Body       RowExpression
}

func (l *Lambda) TypeOf() *types.Type { return l.Body.TypeOf() }
func (l *Lambda) isRowExpression()    {}

func (l *Lambda) String() string {
	parts := make([]string, len(l.Params))
	for i, p := range l.Params {
		parts[i] = p + ":" + l.ParamTypes[i].String()
	}
	return "(" + strings.Join(parts, ", ") + ") -> " + l.Body.String()
}

// ---------------------------------------------------------------------------
// Construction helpers used throughout the planner.

// NewConstant builds a typed literal.
func NewConstant(v any, t *types.Type) *Constant { return &Constant{Value: v, Type: t} }

// Null is the NULL literal of unknown type.
func Null() *Constant { return &Constant{Value: nil, Type: types.Unknown} }

// NewVariable references input channel ch.
func NewVariable(name string, ch int, t *types.Type) *Variable {
	return &Variable{Name: name, Channel: ch, Type: t}
}

// NewCall resolves name against the global registry and builds a Call.
// It returns an error if no matching function exists.
func NewCall(name string, args ...RowExpression) (*Call, error) {
	argTypes := make([]*types.Type, len(args))
	for i, a := range args {
		argTypes[i] = a.TypeOf()
	}
	fn, err := Resolve(name, argTypes)
	if err != nil {
		return nil, err
	}
	ret := fn.ReturnType(argTypes)
	handle := FunctionHandle{Name: fn.Name, ReturnType: ret.String()}
	for _, at := range argTypes {
		handle.ArgTypes = append(handle.ArgTypes, at.String())
	}
	return &Call{Handle: handle, Args: args, Ret: ret}, nil
}

// MustCall is NewCall that panics; for tests and internal rewrites where the
// signature is known valid.
func MustCall(name string, args ...RowExpression) *Call {
	c, err := NewCall(name, args...)
	if err != nil {
		panic(err)
	}
	return c
}

// And builds a conjunction (flattening nested ANDs); returns true-constant
// for no args.
func And(args ...RowExpression) RowExpression {
	flat := make([]RowExpression, 0, len(args))
	for _, a := range args {
		if sf, ok := a.(*SpecialForm); ok && sf.Form == FormAnd {
			flat = append(flat, sf.Args...)
			continue
		}
		flat = append(flat, a)
	}
	switch len(flat) {
	case 0:
		return NewConstant(true, types.Boolean)
	case 1:
		return flat[0]
	}
	return &SpecialForm{Form: FormAnd, Args: flat, Ret: types.Boolean}
}

// Or builds a disjunction.
func Or(args ...RowExpression) RowExpression {
	switch len(args) {
	case 0:
		return NewConstant(false, types.Boolean)
	case 1:
		return args[0]
	}
	return &SpecialForm{Form: FormOr, Args: args, Ret: types.Boolean}
}

// Not negates a boolean expression.
func Not(arg RowExpression) RowExpression {
	return &SpecialForm{Form: FormNot, Args: []RowExpression{arg}, Ret: types.Boolean}
}

// Dereference accesses field (by name) of a ROW-typed expression.
func Dereference(base RowExpression, field string) (*SpecialForm, error) {
	bt := base.TypeOf()
	if bt.Kind != types.KindRow {
		return nil, fmt.Errorf("expr: cannot dereference %s from non-row type %s", field, bt)
	}
	idx := bt.FieldIndex(field)
	if idx < 0 {
		return nil, fmt.Errorf("expr: row type %s has no field %q", bt, field)
	}
	return &SpecialForm{
		Form: FormDereference,
		Args: []RowExpression{base, NewConstant(bt.Fields[idx].Name, types.Varchar)},
		Ret:  bt.Fields[idx].Type,
	}, nil
}

// Walk visits e and all descendants in pre-order; stop descending when fn
// returns false.
func Walk(e RowExpression, fn func(RowExpression) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch t := e.(type) {
	case *Call:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	case *SpecialForm:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	case *Lambda:
		Walk(t.Body, fn)
	}
}

// Rewrite applies fn bottom-up, returning a new tree. fn receives each node
// after its children were rewritten.
func Rewrite(e RowExpression, fn func(RowExpression) RowExpression) RowExpression {
	switch t := e.(type) {
	case *Call:
		args := make([]RowExpression, len(t.Args))
		for i, a := range t.Args {
			args[i] = Rewrite(a, fn)
		}
		return fn(&Call{Handle: t.Handle, Args: args, Ret: t.Ret})
	case *SpecialForm:
		args := make([]RowExpression, len(t.Args))
		for i, a := range t.Args {
			args[i] = Rewrite(a, fn)
		}
		return fn(&SpecialForm{Form: t.Form, Args: args, Ret: t.Ret})
	case *Lambda:
		return fn(&Lambda{Params: t.Params, ParamTypes: t.ParamTypes, Body: Rewrite(t.Body, fn)})
	default:
		return fn(e)
	}
}

// ReferencedChannels returns the sorted set of input channels e reads.
func ReferencedChannels(e RowExpression) []int {
	seen := map[int]bool{}
	Walk(e, func(x RowExpression) bool {
		if v, ok := x.(*Variable); ok {
			seen[v.Channel] = true
		}
		return true
	})
	out := make([]int, 0, len(seen))
	for ch := range seen {
		out = append(out, ch)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RemapChannels returns a copy of e with each Variable channel mapped through
// m. Panics if a channel is missing from m (planner bug).
func RemapChannels(e RowExpression, m map[int]int) RowExpression {
	return Rewrite(e, func(x RowExpression) RowExpression {
		if v, ok := x.(*Variable); ok {
			nc, ok := m[v.Channel]
			if !ok {
				panic(fmt.Sprintf("expr: channel %d missing from remap", v.Channel))
			}
			return &Variable{Name: v.Name, Channel: nc, Type: v.Type}
		}
		return x
	})
}
