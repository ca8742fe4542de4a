type width = W1 | W2 | W4 | W8

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr | Sar
  | Eq | Ne | Lt | Le | Gt | Ge
  | Ltu | Geu
  | Land | Lor

type unop = Neg | Lnot | Bnot

type expr =
  | Int of int64
  | Str of string
  | Var of string
  | Fnptr of string
  | Load of width * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Icall of expr * expr list

type stmt =
  | Assign of string * expr
  | Store of width * expr * expr
  | If of expr * block * block
  | While of expr * block
  | Return of expr option
  | Expr of expr
  | Break
  | Continue
  | Guard of expr * block

and block = stmt list

type local = { lname : string; array : int option }

type datum =
  | Bytes of string
  | Zeros of int
  | Words of int64 list

type global = { gname : string; datum : datum }

type func = {
  fname : string;
  params : string list;
  locals : local list;
  body : block;
}

type program = { globals : global list; funcs : func list }

let empty = { globals = []; funcs = [] }

let merge a b = { globals = a.globals @ b.globals; funcs = a.funcs @ b.funcs }

let callees p =
  let rec expr acc = function
    | Int _ | Str _ | Var _ | Fnptr _ -> acc
    | Load (_, e) | Unop (_, e) -> expr acc e
    | Binop (_, a, b) -> expr (expr acc a) b
    | Call (f, args) -> List.fold_left expr (f :: acc) args
    | Icall (f, args) -> List.fold_left expr (expr acc f) args
  in
  let rec stmt acc = function
    | Assign (_, e) | Return (Some e) | Expr e -> expr acc e
    | Store (_, a, v) -> expr (expr acc a) v
    | If (c, bt, bf) -> block (block (expr acc c) bt) bf
    | While (c, b) | Guard (c, b) -> block (expr acc c) b
    | Return None | Break | Continue -> acc
  and block acc b = List.fold_left stmt acc b in
  List.sort_uniq compare (List.fold_left (fun acc f -> block acc f.body) [] p.funcs)

let find_func p name = List.find_opt (fun f -> f.fname = name) p.funcs

exception Invalid of string

let err fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type binding = Scalar | Array | Global_addr

let validate ~externals p =
  let module S = Set.Make (String) in
  let add_unique what seen name =
    if S.mem name seen then err "duplicate %s %S" what name;
    S.add name seen
  in
  let globals =
    List.fold_left (fun s (g : global) -> add_unique "global" s g.gname) S.empty p.globals
  in
  let fnames =
    List.fold_left (fun s (f : func) -> add_unique "function" s f.fname) S.empty p.funcs
  in
  let callable name = S.mem name fnames || List.mem name externals in
  let check_func (f : func) =
    let ctx what = Printf.sprintf "%s in function %S" what f.fname in
    let env = Hashtbl.create 16 in
    let declare name binding =
      if Hashtbl.mem env name then err "%s" (ctx (Printf.sprintf "duplicate variable %S" name));
      if S.mem name globals then
        err "%s" (ctx (Printf.sprintf "variable %S shadows a global" name));
      Hashtbl.add env name binding
    in
    List.iter (fun name -> declare name Scalar) f.params;
    List.iter
      (fun (l : local) ->
        (match l.array with
        | Some n when n <= 0 -> err "%s" (ctx (Printf.sprintf "array %S has size %d" l.lname n))
        | _ -> ());
        declare l.lname (match l.array with Some _ -> Array | None -> Scalar))
      f.locals;
    let binding_of name =
      match Hashtbl.find_opt env name with
      | Some b -> b
      | None ->
          if S.mem name globals then Global_addr
          else err "%s" (ctx (Printf.sprintf "unbound variable %S" name))
    in
    let rec check_expr = function
      | Int _ | Str _ -> ()
      | Var name -> ignore (binding_of name)
      | Fnptr name ->
          if not (S.mem name fnames) then
            err "%s" (ctx (Printf.sprintf "function pointer to unknown function %S" name))
      | Icall (f, args) ->
          check_expr f;
          List.iter check_expr args
      | Load (_, e) -> check_expr e
      | Unop (_, e) -> check_expr e
      | Binop (_, a, b) ->
          check_expr a;
          check_expr b
      | Call (name, args) ->
          if not (callable name) then
            err "%s" (ctx (Printf.sprintf "call to unknown function %S" name));
          (match find_func p name with
          | Some callee ->
              if List.length callee.params <> List.length args then
                err "%s"
                  (ctx
                     (Printf.sprintf "call to %S with %d arguments, expected %d" name
                        (List.length args) (List.length callee.params)))
          | None -> ());
          List.iter check_expr args
    in
    let rec check_stmt ~in_loop = function
      | Assign (name, e) ->
          (match binding_of name with
          | Scalar -> ()
          | Array | Global_addr ->
              err "%s" (ctx (Printf.sprintf "assignment to non-scalar %S" name)));
          check_expr e
      | Store (_, a, v) ->
          check_expr a;
          check_expr v
      | If (c, bt, bf) ->
          check_expr c;
          check_block ~in_loop bt;
          check_block ~in_loop bf
      | While (c, b) ->
          check_expr c;
          check_block ~in_loop:true b
      | Return (Some e) -> check_expr e
      | Return None -> ()
      | Expr e -> check_expr e
      | Break | Continue ->
          if not in_loop then err "%s" (ctx "break/continue outside a loop")
      | Guard (e, handler) ->
          check_expr e;
          check_block ~in_loop handler
    and check_block ~in_loop b = List.iter (check_stmt ~in_loop) b in
    check_block ~in_loop:false f.body
  in
  List.iter check_func p.funcs

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Sar -> ">>a"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Ltu -> "<u"
  | Geu -> ">=u"
  | Land -> "&&"
  | Lor -> "||"

let unop_to_string = function Neg -> "-" | Lnot -> "!" | Bnot -> "~"

let width_to_string = function W1 -> "u8" | W2 -> "u16" | W4 -> "u32" | W8 -> "u64"

let rec pp_expr ppf = function
  | Int i -> Format.fprintf ppf "%Ld" i
  | Str s -> Format.fprintf ppf "%S" s
  | Var v -> Format.pp_print_string ppf v
  | Fnptr f -> Format.fprintf ppf "&%s" f
  | Load (w, e) -> Format.fprintf ppf "*(%s*)(%a)" (width_to_string w) pp_expr e
  | Unop (u, e) -> Format.fprintf ppf "%s(%a)" (unop_to_string u) pp_expr e
  | Binop (b, x, y) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr x (binop_to_string b) pp_expr y
  | Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_expr)
        args
  | Icall (f, args) ->
      Format.fprintf ppf "(*%a)(%a)" pp_expr f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_expr)
        args

let rec pp_stmt ppf = function
  | Assign (v, e) -> Format.fprintf ppf "@[<h>%s = %a;@]" v pp_expr e
  | Store (w, a, v) ->
      Format.fprintf ppf "@[<h>*(%s*)(%a) = %a;@]" (width_to_string w) pp_expr a pp_expr v
  | If (c, bt, []) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@ %a@]@ }" pp_expr c pp_block bt
  | If (c, bt, bf) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@ %a@]@ @[<v 2>} else {@ %a@]@ }" pp_expr c
        pp_block bt pp_block bf
  | While (c, b) ->
      Format.fprintf ppf "@[<v 2>while (%a) {@ %a@]@ }" pp_expr c pp_block b
  | Return (Some e) -> Format.fprintf ppf "return %a;" pp_expr e
  | Return None -> Format.pp_print_string ppf "return;"
  | Expr e -> Format.fprintf ppf "%a;" pp_expr e
  | Break -> Format.pp_print_string ppf "break;"
  | Continue -> Format.pp_print_string ppf "continue;"
  | Guard (e, handler) ->
      Format.fprintf ppf "@[<v 2>guard (%a) {@ %a@]@ }" pp_expr e pp_block handler

and pp_block ppf b =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf b

let pp_local ppf (l : local) =
  match l.array with
  | Some n -> Format.fprintf ppf "u8 %s[%d];" l.lname n
  | None -> Format.fprintf ppf "u64 %s;" l.lname

let pp_func ppf (f : func) =
  Format.fprintf ppf "@[<v 2>func %s(%s) {@ %a%s%a@]@ }@ " f.fname
    (String.concat ", " f.params)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_local)
    f.locals
    (if f.locals = [] then "" else " ")
    pp_block f.body

let pp_global ppf (g : global) =
  match g.datum with
  | Bytes s -> Format.fprintf ppf "global %s = %S;@ " g.gname s
  | Zeros n -> Format.fprintf ppf "global %s = zeros(%d);@ " g.gname n
  | Words ws ->
      Format.fprintf ppf "global %s = words(%s);@ " g.gname
        (String.concat ", " (List.map Int64.to_string ws))

let pp_program ppf (p : program) =
  Format.fprintf ppf "@[<v>%a%a@]"
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_global)
    p.globals
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_func)
    p.funcs
