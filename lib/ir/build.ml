let i n = Ir.Int (Int64.of_int n)
let i64 n = Ir.Int n
let str s = Ir.Str s
let v name = Ir.Var name
let load8 a = Ir.Load (Ir.W1, a)
let load64 a = Ir.Load (Ir.W8, a)
let store8 a x = Ir.Store (Ir.W1, a, x)
let store64 a x = Ir.Store (Ir.W8, a, x)
let call f args = Ir.Call (f, args)
let ecall f args = Ir.Expr (Ir.Call (f, args))
let set name e = Ir.Assign (name, e)
let if_ c bt bf = Ir.If (c, bt, bf)
let when_ c bt = Ir.If (c, bt, [])
let while_ c b = Ir.While (c, b)

let for_up x lo hi body =
  [
    Ir.Assign (x, lo);
    Ir.While
      (Ir.Binop (Ir.Lt, Ir.Var x, hi),
       body @ [ Ir.Assign (x, Ir.Binop (Ir.Add, Ir.Var x, Ir.Int 1L)) ]);
  ]

let ret e = Ir.Return (Some e)
let ret0 = Ir.Return None
let scalar name = { Ir.lname = name; array = None }
let array name n = { Ir.lname = name; array = Some n }
let func name ~params ~locals body = { Ir.fname = name; params; locals; body }
let global_bytes name s = { Ir.gname = name; datum = Ir.Bytes s }
let global_zeros name n = { Ir.gname = name; datum = Ir.Zeros n }
let global_words name ws = { Ir.gname = name; datum = Ir.Words ws }
let fnptr f = Ir.Fnptr f
let icall f args = Ir.Icall (f, args)
let guard e handler = Ir.Guard (e, handler)

module Infix = struct
  let bin op a b = Ir.Binop (op, a, b)
  let ( +: ) a b = bin Ir.Add a b
  let ( -: ) a b = bin Ir.Sub a b
  let ( *: ) a b = bin Ir.Mul a b
  let ( /: ) a b = bin Ir.Div a b
  let ( %: ) a b = bin Ir.Rem a b
  let ( &: ) a b = bin Ir.Band a b
  let ( |: ) a b = bin Ir.Bor a b
  let ( ^: ) a b = bin Ir.Bxor a b
  let ( <<: ) a b = bin Ir.Shl a b
  let ( >>: ) a b = bin Ir.Shr a b
  let ( ==: ) a b = bin Ir.Eq a b
  let ( <>: ) a b = bin Ir.Ne a b
  let ( <: ) a b = bin Ir.Lt a b
  let ( <=: ) a b = bin Ir.Le a b
  let ( >: ) a b = bin Ir.Gt a b
  let ( >=: ) a b = bin Ir.Ge a b
  let ( &&: ) a b = bin Ir.Land a b
  let ( ||: ) a b = bin Ir.Lor a b
end
