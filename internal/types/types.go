// Package types implements the SQL type system used across the engine:
// primitive types (BOOLEAN, INTEGER, BIGINT, DOUBLE, VARCHAR, DATE) and the
// nested types the paper's §V is about (ARRAY, MAP, ROW). ROW models the
// deeply nested structs the Parquet reader work targets.
package types

import (
	"fmt"
	"strings"
)

// Kind enumerates the SQL type kinds supported by the engine.
type Kind int

const (
	KindUnknown Kind = iota // the type of a bare NULL literal
	KindBoolean
	KindInteger
	KindBigint
	KindDouble
	KindVarchar
	KindDate
	KindArray
	KindMap
	KindRow
)

// Field is one named field of a ROW type.
type Field struct {
	Name string
	Type *Type
}

// Type describes a SQL type. Types are immutable after construction; the
// primitive types are package-level singletons so == works for primitives,
// while nested types compare with Equals.
type Type struct {
	Kind   Kind
	Elem   *Type   // array element type
	Key    *Type   // map key type
	Value  *Type   // map value type
	Fields []Field // row fields, in declaration order
}

// Primitive singletons.
var (
	Unknown = &Type{Kind: KindUnknown}
	Boolean = &Type{Kind: KindBoolean}
	Integer = &Type{Kind: KindInteger}
	Bigint  = &Type{Kind: KindBigint}
	Double  = &Type{Kind: KindDouble}
	Varchar = &Type{Kind: KindVarchar}
	Date    = &Type{Kind: KindDate}
)

// NewArray returns an array(elem) type.
func NewArray(elem *Type) *Type { return &Type{Kind: KindArray, Elem: elem} }

// NewMap returns a map(key, value) type.
func NewMap(key, value *Type) *Type { return &Type{Kind: KindMap, Key: key, Value: value} }

// NewRow returns a row(...) type with the given fields.
func NewRow(fields ...Field) *Type {
	return &Type{Kind: KindRow, Fields: fields}
}

// FieldIndex returns the index of the named field of a ROW type, or -1.
// Field names are case-insensitive, matching SQL identifier semantics.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// Equals reports deep structural equality.
func (t *Type) Equals(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindArray:
		return t.Elem.Equals(o.Elem)
	case KindMap:
		return t.Key.Equals(o.Key) && t.Value.Equals(o.Value)
	case KindRow:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if !strings.EqualFold(t.Fields[i].Name, o.Fields[i].Name) || !t.Fields[i].Type.Equals(o.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return true
}

// String renders the type in SQL syntax, e.g. "map(varchar, double)" or
// "row(city_id bigint, geo row(lat double, lng double))".
func (t *Type) String() string {
	switch t.Kind {
	case KindUnknown:
		return "unknown"
	case KindBoolean:
		return "boolean"
	case KindInteger:
		return "integer"
	case KindBigint:
		return "bigint"
	case KindDouble:
		return "double"
	case KindVarchar:
		return "varchar"
	case KindDate:
		return "date"
	case KindArray:
		return "array(" + t.Elem.String() + ")"
	case KindMap:
		return "map(" + t.Key.String() + ", " + t.Value.String() + ")"
	case KindRow:
		var b strings.Builder
		b.WriteString("row(")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteByte(' ')
			b.WriteString(f.Type.String())
		}
		b.WriteByte(')')
		return b.String()
	}
	return fmt.Sprintf("invalid(%d)", int(t.Kind))
}

// CommonSuperType returns the type both a and b coerce to for comparison and
// arithmetic, or nil if none exists. unknown (NULL) coerces to anything;
// integer widens to bigint widens to double.
func CommonSuperType(a, b *Type) *Type {
	if a.Equals(b) {
		return a
	}
	if a.Kind == KindUnknown {
		return b
	}
	if b.Kind == KindUnknown {
		return a
	}
	rank := func(t *Type) int {
		switch t.Kind {
		case KindInteger:
			return 1
		case KindBigint:
			return 2
		case KindDouble:
			return 3
		}
		return 0
	}
	ra, rb := rank(a), rank(b)
	if ra > 0 && rb > 0 {
		if ra > rb {
			return a
		}
		return b
	}
	return nil
}

// Parse parses a SQL type string as produced by String. It is used by the
// metastore to persist schemas.
func Parse(s string) (*Type, error) {
	p := &typeParser{input: s}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("types: trailing input at %d in %q", p.pos, s)
	}
	return t, nil
}

type typeParser struct {
	input string
	pos   int
}

func (p *typeParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *typeParser) peek() byte {
	if p.pos < len(p.input) {
		return p.input[p.pos]
	}
	return 0
}

func (p *typeParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("types: expected %q at %d in %q", string(c), p.pos, p.input)
	}
	p.pos++
	return nil
}

func (p *typeParser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			p.pos++
			continue
		}
		break
	}
	return strings.ToLower(p.input[start:p.pos])
}

func (p *typeParser) parseType() (*Type, error) {
	name := p.ident()
	switch name {
	case "boolean":
		return Boolean, nil
	case "integer", "int":
		return Integer, nil
	case "bigint":
		return Bigint, nil
	case "double":
		return Double, nil
	case "varchar", "string":
		// accept varchar(n) and ignore the length, like the engine does
		p.skipSpace()
		if p.peek() == '(' {
			p.pos++
			p.ident()
			if err := p.expect(')'); err != nil {
				return nil, err
			}
		}
		return Varchar, nil
	case "date":
		return Date, nil
	case "unknown":
		return Unknown, nil
	case "array":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return NewArray(elem), nil
	case "map":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		key, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		val, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return NewMap(key, val), nil
	case "row":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var fields []Field
		for {
			fname := p.ident()
			if fname == "" {
				return nil, fmt.Errorf("types: expected field name at %d in %q", p.pos, p.input)
			}
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, Field{Name: fname, Type: ft})
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return NewRow(fields...), nil
	case "":
		return nil, fmt.Errorf("types: empty type at %d in %q", p.pos, p.input)
	default:
		return nil, fmt.Errorf("types: unknown type %q in %q", name, p.input)
	}
}
