package expr

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"prestolite/internal/types"
)

// ScalarFunction describes one overload of a scalar function. Functions are
// registered in a process-global registry; connectors and plugins (e.g. the
// geospatial plugin, §VI.E) register additional functions at startup.
type ScalarFunction struct {
	// Name is the lower-case function name.
	Name string
	// Params are the declared parameter types; a nil entry accepts any type.
	Params []*types.Type
	// Variadic allows extra trailing arguments of the last param type.
	Variadic bool
	// ReturnType computes the result type from actual argument types.
	ReturnType func(args []*types.Type) *types.Type
	// EvalRow computes a single row. Arguments follow block boxing.
	// It is only called when all arguments are non-null unless
	// CalledOnNull is set.
	EvalRow func(args []any) (any, error)
	// CalledOnNull opts into receiving SQL NULL arguments.
	CalledOnNull bool
}

// matches reports whether this overload accepts the argument types exactly.
func (f *ScalarFunction) matches(args []*types.Type) bool {
	if f.Variadic {
		if len(args) < len(f.Params) {
			return false
		}
	} else if len(args) != len(f.Params) {
		return false
	}
	for i, a := range args {
		p := f.Params[min(i, len(f.Params)-1)]
		if p == nil {
			continue
		}
		if !typeAccepts(p, a) {
			return false
		}
	}
	return true
}

// typeAccepts allows unknown (null literal) anywhere and structural equality
// otherwise. Array/map/row params with nil components act as wildcards.
func typeAccepts(param, arg *types.Type) bool {
	if arg.Kind == types.KindUnknown {
		return true
	}
	if param.Kind != arg.Kind {
		return false
	}
	switch param.Kind {
	case types.KindArray:
		return param.Elem == nil || typeAccepts(param.Elem, arg.Elem)
	case types.KindMap:
		return (param.Key == nil || typeAccepts(param.Key, arg.Key)) &&
			(param.Value == nil || typeAccepts(param.Value, arg.Value))
	case types.KindRow:
		return len(param.Fields) == 0
	}
	return true
}

var (
	registryMu sync.RWMutex
	registry   = map[string][]*ScalarFunction{}
)

// RegisterScalar adds an overload to the global registry.
func RegisterScalar(f *ScalarFunction) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[f.Name] = append(registry[f.Name], f)
}

// Resolve finds the overload of name matching argTypes.
func Resolve(name string, argTypes []*types.Type) (*ScalarFunction, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	overloads := registry[strings.ToLower(name)]
	for _, f := range overloads {
		if f.matches(argTypes) {
			return f, nil
		}
	}
	if len(overloads) == 0 {
		return nil, fmt.Errorf("expr: unknown function %q", name)
	}
	strs := make([]string, len(argTypes))
	for i, t := range argTypes {
		strs[i] = t.String()
	}
	return nil, fmt.Errorf("expr: no overload of %q for (%s)", name, strings.Join(strs, ", "))
}

func fixedReturn(t *types.Type) func([]*types.Type) *types.Type {
	return func([]*types.Type) *types.Type { return t }
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Built-in functions.

func asInt64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	panic(fmt.Sprintf("expr: not an int64: %T", v))
}

func asFloat64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int:
		return float64(x)
	}
	panic(fmt.Sprintf("expr: not a float64: %T", v))
}

func registerBinaryNumeric(name string, intFn func(a, b int64) (int64, error), floatFn func(a, b float64) float64) {
	RegisterScalar(&ScalarFunction{
		Name: name, Params: []*types.Type{types.Bigint, types.Bigint},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow: func(args []any) (any, error) {
			return intFn(asInt64(args[0]), asInt64(args[1]))
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: name, Params: []*types.Type{types.Double, types.Double},
		ReturnType: fixedReturn(types.Double),
		EvalRow: func(args []any) (any, error) {
			return floatFn(asFloat64(args[0]), asFloat64(args[1])), nil
		},
	})
}

// unordered reports whether a NaN double takes part in a comparison: under
// IEEE 754 none of =, <, <=, >, >= then holds, and <> does. CompareValues
// alone would call the NaN equal.
func unordered(a, b any) bool {
	x, xok := a.(float64)
	y, yok := b.(float64)
	return xok && math.IsNaN(x) || yok && math.IsNaN(y)
}

// CompareValues orders two non-null values of the same primitive type:
// -1, 0 or 1; a NaN compares 0 with everything. Exported for the boxed
// min/max states and for statistics checks; ORDER BY orders by
// vector.AppendKey bytes instead.
func CompareValues(a, b any) int {
	switch x := a.(type) {
	case int64:
		y := asInt64(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y := asFloat64(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		return strings.Compare(x, b.(string))
	case bool:
		y := b.(bool)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("expr: cannot compare %T", a))
}

func registerComparison(name string, pred func(cmp int) bool) {
	for _, t := range []*types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean, types.Date} {
		t := t
		RegisterScalar(&ScalarFunction{
			Name: name, Params: []*types.Type{t, t},
			ReturnType: fixedReturn(types.Boolean),
			EvalRow: func(args []any) (any, error) {
				if unordered(args[0], args[1]) {
					return name == "neq", nil
				}
				return pred(CompareValues(args[0], args[1])), nil
			},
		})
	}
}

var likeCache sync.Map // pattern string -> *regexp.Regexp

// CompileLike converts a SQL LIKE pattern to a regexp ('%' → '.*', '_' → '.').
func CompileLike(pattern string) (*regexp.Regexp, error) {
	if re, ok := likeCache.Load(pattern); ok {
		return re.(*regexp.Regexp), nil
	}
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, fmt.Errorf("expr: bad LIKE pattern %q: %w", pattern, err)
	}
	likeCache.Store(pattern, re)
	return re, nil
}

// EpochDate converts a 'YYYY-MM-DD' string to days since the Unix epoch.
func EpochDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("expr: bad date %q: %w", s, err)
	}
	return t.Unix() / 86400, nil
}

func init() {
	registerBinaryNumeric("add",
		func(a, b int64) (int64, error) { return a + b, nil },
		func(a, b float64) float64 { return a + b })
	registerBinaryNumeric("subtract",
		func(a, b int64) (int64, error) { return a - b, nil },
		func(a, b float64) float64 { return a - b })
	registerBinaryNumeric("multiply",
		func(a, b int64) (int64, error) { return a * b, nil },
		func(a, b float64) float64 { return a * b })
	registerBinaryNumeric("divide",
		func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("expr: division by zero")
			}
			return a / b, nil
		},
		func(a, b float64) float64 { return a / b })
	registerBinaryNumeric("modulus",
		func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, fmt.Errorf("expr: modulus by zero")
			}
			return a % b, nil
		},
		func(a, b float64) float64 { return math.Mod(a, b) })

	RegisterScalar(&ScalarFunction{
		Name: "negate", Params: []*types.Type{types.Bigint},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow:    func(args []any) (any, error) { return -asInt64(args[0]), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "negate", Params: []*types.Type{types.Double},
		ReturnType: fixedReturn(types.Double),
		EvalRow:    func(args []any) (any, error) { return -asFloat64(args[0]), nil },
	})

	registerComparison("eq", func(c int) bool { return c == 0 })
	registerComparison("neq", func(c int) bool { return c != 0 })
	registerComparison("lt", func(c int) bool { return c < 0 })
	registerComparison("lte", func(c int) bool { return c <= 0 })
	registerComparison("gt", func(c int) bool { return c > 0 })
	registerComparison("gte", func(c int) bool { return c >= 0 })

	RegisterScalar(&ScalarFunction{
		Name: "like", Params: []*types.Type{types.Varchar, types.Varchar},
		ReturnType: fixedReturn(types.Boolean),
		EvalRow: func(args []any) (any, error) {
			re, err := CompileLike(args[1].(string))
			if err != nil {
				return nil, err
			}
			return re.MatchString(args[0].(string)), nil
		},
	})

	// Casts: to_<type>(x). The analyzer resolves CAST(x AS t) to these.
	RegisterScalar(&ScalarFunction{
		Name: "to_double", Params: []*types.Type{types.Bigint},
		ReturnType: fixedReturn(types.Double),
		EvalRow:    func(args []any) (any, error) { return float64(asInt64(args[0])), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_double", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Double),
		EvalRow: func(args []any) (any, error) {
			f, err := strconv.ParseFloat(args[0].(string), 64)
			if err != nil {
				return nil, fmt.Errorf("expr: cannot cast %q to double", args[0])
			}
			return f, nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_double", Params: []*types.Type{types.Double},
		ReturnType: fixedReturn(types.Double),
		EvalRow:    func(args []any) (any, error) { return args[0], nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_bigint", Params: []*types.Type{types.Double},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow:    func(args []any) (any, error) { return int64(asFloat64(args[0])), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_bigint", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow: func(args []any) (any, error) {
			n, err := strconv.ParseInt(strings.TrimSpace(args[0].(string)), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("expr: cannot cast %q to bigint", args[0])
			}
			return n, nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_bigint", Params: []*types.Type{types.Bigint},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow:    func(args []any) (any, error) { return args[0], nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_varchar", Params: []*types.Type{nil},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow:    func(args []any) (any, error) { return fmt.Sprintf("%v", args[0]), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_date", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Date),
		EvalRow: func(args []any) (any, error) {
			return EpochDate(args[0].(string))
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "to_boolean", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Boolean),
		EvalRow: func(args []any) (any, error) {
			switch strings.ToLower(args[0].(string)) {
			case "true", "t", "1":
				return true, nil
			case "false", "f", "0":
				return false, nil
			}
			return nil, fmt.Errorf("expr: cannot cast %q to boolean", args[0])
		},
	})

	// String functions.
	RegisterScalar(&ScalarFunction{
		Name: "lower", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow:    func(args []any) (any, error) { return strings.ToLower(args[0].(string)), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "upper", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow:    func(args []any) (any, error) { return strings.ToUpper(args[0].(string)), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "length", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow:    func(args []any) (any, error) { return int64(len(args[0].(string))), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "trim", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow:    func(args []any) (any, error) { return strings.TrimSpace(args[0].(string)), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "reverse", Params: []*types.Type{types.Varchar},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow: func(args []any) (any, error) {
			r := []rune(args[0].(string))
			for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
				r[i], r[j] = r[j], r[i]
			}
			return string(r), nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "concat", Params: []*types.Type{types.Varchar, types.Varchar}, Variadic: true,
		ReturnType: fixedReturn(types.Varchar),
		EvalRow: func(args []any) (any, error) {
			var sb strings.Builder
			for _, a := range args {
				sb.WriteString(a.(string))
			}
			return sb.String(), nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "substr", Params: []*types.Type{types.Varchar, types.Bigint},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow: func(args []any) (any, error) {
			s := args[0].(string)
			start := asInt64(args[1])
			if start < 1 || start > int64(len(s)) {
				return "", nil
			}
			return s[start-1:], nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "substr", Params: []*types.Type{types.Varchar, types.Bigint, types.Bigint},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow: func(args []any) (any, error) {
			s := args[0].(string)
			start, length := asInt64(args[1]), asInt64(args[2])
			if start < 1 || start > int64(len(s)) || length <= 0 {
				return "", nil
			}
			end := start - 1 + length
			if end > int64(len(s)) {
				end = int64(len(s))
			}
			return s[start-1 : end], nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "strpos", Params: []*types.Type{types.Varchar, types.Varchar},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow: func(args []any) (any, error) {
			return int64(strings.Index(args[0].(string), args[1].(string)) + 1), nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "replace", Params: []*types.Type{types.Varchar, types.Varchar, types.Varchar},
		ReturnType: fixedReturn(types.Varchar),
		EvalRow: func(args []any) (any, error) {
			return strings.ReplaceAll(args[0].(string), args[1].(string), args[2].(string)), nil
		},
	})

	// Math functions.
	RegisterScalar(&ScalarFunction{
		Name: "abs", Params: []*types.Type{types.Bigint},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow: func(args []any) (any, error) {
			v := asInt64(args[0])
			if v < 0 {
				v = -v
			}
			return v, nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "abs", Params: []*types.Type{types.Double},
		ReturnType: fixedReturn(types.Double),
		EvalRow:    func(args []any) (any, error) { return math.Abs(asFloat64(args[0])), nil },
	})
	for name, fn := range map[string]func(float64) float64{
		"floor": math.Floor, "ceil": math.Ceil, "sqrt": math.Sqrt, "ln": math.Log,
		"round": math.Round,
	} {
		fn := fn
		RegisterScalar(&ScalarFunction{
			Name: name, Params: []*types.Type{types.Double},
			ReturnType: fixedReturn(types.Double),
			EvalRow:    func(args []any) (any, error) { return fn(asFloat64(args[0])), nil },
		})
	}
	RegisterScalar(&ScalarFunction{
		Name: "power", Params: []*types.Type{types.Double, types.Double},
		ReturnType: fixedReturn(types.Double),
		EvalRow: func(args []any) (any, error) {
			return math.Pow(asFloat64(args[0]), asFloat64(args[1])), nil
		},
	})

	// Array and map functions.
	RegisterScalar(&ScalarFunction{
		Name: "cardinality", Params: []*types.Type{{Kind: types.KindArray}},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow:    func(args []any) (any, error) { return int64(len(args[0].([]any))), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "cardinality", Params: []*types.Type{{Kind: types.KindMap}},
		ReturnType: fixedReturn(types.Bigint),
		EvalRow:    func(args []any) (any, error) { return int64(len(args[0].([][2]any))), nil },
	})
	RegisterScalar(&ScalarFunction{
		Name: "element_at", Params: []*types.Type{{Kind: types.KindArray}, types.Bigint},
		ReturnType: func(args []*types.Type) *types.Type { return args[0].Elem },
		EvalRow: func(args []any) (any, error) {
			arr := args[0].([]any)
			i := asInt64(args[1])
			if i < 1 || i > int64(len(arr)) {
				return nil, nil
			}
			return arr[i-1], nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "element_at", Params: []*types.Type{{Kind: types.KindMap}, nil},
		ReturnType: func(args []*types.Type) *types.Type { return args[0].Value },
		EvalRow: func(args []any) (any, error) {
			entries := args[0].([][2]any)
			for _, e := range entries {
				if e[0] != nil && CompareValues(e[0], args[1]) == 0 {
					return e[1], nil
				}
			}
			return nil, nil
		},
	})
	RegisterScalar(&ScalarFunction{
		Name: "contains", Params: []*types.Type{{Kind: types.KindArray}, nil},
		ReturnType: fixedReturn(types.Boolean),
		EvalRow: func(args []any) (any, error) {
			for _, e := range args[0].([]any) {
				if e != nil && CompareValues(e, args[1]) == 0 {
					return true, nil
				}
			}
			return false, nil
		},
	})
}
