package schema

// CompileNull is compileNull, for the external tests.
var CompileNull = compileNull
