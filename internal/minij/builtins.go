package minij

// BuiltinSig describes the static signature of a builtin function. Builtin
// implementations live in the interpreter; the resolver only needs names,
// arities, and the Blocking flag (which structural contracts such as "no
// blocking I/O inside synchronized blocks" key on).
type BuiltinSig struct {
	Name     string
	Arity    int // -1 means variadic
	Ret      Type
	Blocking bool // performs (simulated) blocking I/O
}

// builtinSigs is the registry of builtin functions callable without a
// receiver.
var builtinSigs = map[string]BuiltinSig{
	"now":         {Name: "now", Arity: 0, Ret: Type{Kind: TypeInt}},
	"log":         {Name: "log", Arity: 1, Ret: Type{Kind: TypeVoid}},
	"ioWrite":     {Name: "ioWrite", Arity: 2, Ret: Type{Kind: TypeVoid}, Blocking: true},
	"ioRead":      {Name: "ioRead", Arity: 1, Ret: Type{Kind: TypeString}, Blocking: true},
	"ioFlush":     {Name: "ioFlush", Arity: 0, Ret: Type{Kind: TypeVoid}, Blocking: true},
	"netSend":     {Name: "netSend", Arity: 2, Ret: Type{Kind: TypeVoid}, Blocking: true},
	"sleep":       {Name: "sleep", Arity: 1, Ret: Type{Kind: TypeVoid}, Blocking: true},
	"newList":     {Name: "newList", Arity: 0, Ret: Type{Kind: TypeList}},
	"newMap":      {Name: "newMap", Arity: 0, Ret: Type{Kind: TypeMap}},
	"len":         {Name: "len", Arity: 1, Ret: Type{Kind: TypeInt}},
	"str":         {Name: "str", Arity: 1, Ret: Type{Kind: TypeString}},
	"strContains": {Name: "strContains", Arity: 2, Ret: Type{Kind: TypeBool}},
	"min":         {Name: "min", Arity: 2, Ret: Type{Kind: TypeInt}},
	"max":         {Name: "max", Arity: 2, Ret: Type{Kind: TypeInt}},
	"abort":       {Name: "abort", Arity: 1, Ret: Type{Kind: TypeVoid}},
	"assertTrue":  {Name: "assertTrue", Arity: 2, Ret: Type{Kind: TypeVoid}},
}

// Builtin returns the signature of builtin name and whether it exists.
func Builtin(name string) (BuiltinSig, bool) {
	sig, ok := builtinSigs[name]
	return sig, ok
}

// IsBlockingBuiltin reports whether name is a builtin flagged as blocking
// I/O.
func IsBlockingBuiltin(name string) bool {
	sig, ok := builtinSigs[name]
	return ok && sig.Blocking
}

// listMethods maps list instance-method names to their arity.
var listMethods = map[string]int{
	"add": 1, "get": 1, "size": 0, "contains": 1, "remove": 1,
	"removeAt": 1, "clear": 0, "isEmpty": 0, "addAll": 1,
}

// mapMethods maps map instance-method names to their arity.
var mapMethods = map[string]int{
	"put": 2, "get": 1, "has": 1, "remove": 1, "size": 0,
	"keys": 0, "values": 0, "clear": 0, "isEmpty": 0,
}

// ContainerMethod reports whether a method name is valid on the given
// container kind (TypeList or TypeMap) and, if so, its arity.
func ContainerMethod(kind TypeKind, name string) (arity int, ok bool) {
	switch kind {
	case TypeList:
		arity, ok = listMethods[name]
	case TypeMap:
		arity, ok = mapMethods[name]
	}
	return arity, ok
}
