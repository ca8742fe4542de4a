let region1 off = Shift_mem.Addr.in_region 1 off
let data_base = region1 0x10000L
let heap_base = region1 0x2000_0000L
let stack_top = region1 0x4000_0000L
let shadow_base = Shift_mem.Addr.in_region 3 0x10000L
let scratch_symbol = "__scratch"
let literal_prefix = "__str"

let is_reserved name =
  name = scratch_symbol
  ||
  let n = String.length literal_prefix in
  String.length name > n
  && String.sub name 0 n = literal_prefix
  && String.for_all (function '0' .. '9' -> true | _ -> false)
       (String.sub name n (String.length name - n))

module Dataseg = struct
  type t = {
    mutable next : int64;
    mutable chunks : (int64 * string) list;
    mutable interned : int;  (* string literals named so far: __str1.. *)
    mutable literals : string list;  (* their contents, newest first *)
    symbols : (string, int64) Hashtbl.t;
    strings : (string, string * int64) Hashtbl.t;
  }

  let align8 n = Int64.logand (Int64.add n 7L) (Int64.lognot 7L)

  let create () =
    let t =
      {
        next = data_base;
        chunks = [];
        interned = 0;
        literals = [];
        symbols = Hashtbl.create 64;
        strings = Hashtbl.create 64;
      }
    in
    (* the NaT-stripping scratch slot exists in every program *)
    Hashtbl.add t.symbols scratch_symbol t.next;
    t.next <- Int64.add t.next 8L;
    t

  let alloc t name bytes_opt size =
    let addr = t.next in
    if Hashtbl.mem t.symbols name then
      invalid_arg (Printf.sprintf "Dataseg.alloc: duplicate symbol %S" name);
    Hashtbl.add t.symbols name addr;
    (match bytes_opt with
    | Some b -> t.chunks <- (addr, b) :: t.chunks
    | None -> ());
    t.next <- align8 (Int64.add addr (Int64.of_int size));
    addr

  let bytes_of_words ws =
    let b = Buffer.create (8 * List.length ws) in
    List.iter (fun w -> Buffer.add_int64_le b w) ws;
    Buffer.contents b

  let add_global t (g : Ir.global) =
    match g.datum with
    | Ir.Bytes s ->
        ignore (alloc t g.gname (Some (s ^ "\000")) (String.length s + 1))
    | Ir.Zeros n -> ignore (alloc t g.gname None n)
    | Ir.Words ws ->
        let b = bytes_of_words ws in
        ignore (alloc t g.gname (Some b) (String.length b))

  let intern_string t s =
    match Hashtbl.find_opt t.strings s with
    | Some named -> named
    | None ->
        t.interned <- t.interned + 1;
        t.literals <- s :: t.literals;
        let name = Printf.sprintf "%s%d" literal_prefix t.interned in
        let named = (name, alloc t name (Some (s ^ "\000")) (String.length s + 1)) in
        Hashtbl.add t.strings s named;
        named

  let literals t = List.rev t.literals

  let symbol t name = Hashtbl.find t.symbols name
  let chunks t = List.rev t.chunks
  let symbols t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.symbols []
end
