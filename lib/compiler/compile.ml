open Shift_isa

exception Error of string

type nat_source_strategy = Instrument.nat_source_strategy = Per_function | Per_use

type pointer_policy = Instrument.pointer_policy =
  | Fault_on_tainted_pointer
  | Propagate_pointer_taint

type options = Instrument.options = {
  relax_all_compares : bool;
  skip_save_restore : bool;
  nat_source_strategy : nat_source_strategy;
  pointer_policy : pointer_policy;
}

let default_options = Instrument.default_options

(* §3.3.1 source (4): tag the result register after calls to the
   configured functions.  The marker is a plain [setnat r8]; the
   instrumentation pass lowers it per mode. *)
let insert_return_taints ~taint_returns items =
  if taint_returns = [] then items
  else
    List.concat_map
      (fun item ->
        match item with
        | Program.I { op = Instr.Call f; _ } when List.mem f taint_returns ->
            [ item; Program.I (Instr.mk (Instr.Setnat Reg.ret)) ]
        | _ -> [ item ])
      items

(* One compiled, instrumented unit.  [relocs] are the instruction
   positions (labels not counted) of the [movi]s whose immediates are
   data addresses, with the symbol each names: linking resolves them
   against the image's own segment. *)
type unit_code = {
  name : string;
  items : Program.item list;
  size : int;
  relocs : (int * string) list;
}

type library = {
  ir : Ir.program;
  callees : string list;
  mode : Mode.t;
  options : options;
  keep_taint_markers : bool;
  taint_returns : string list;
  literals : string list;
  units : unit_code list;
}

(* the [taint_returns] entries a library's code depends on *)
let called ~callees taint_returns =
  List.sort_uniq compare (List.filter (fun f -> List.mem f callees) taint_returns)

let check_program prog =
  (try Ir.validate ~externals:Codegen.externals prog
   with Ir.Invalid msg -> raise (Error msg));
  List.iter
    (fun (g : Ir.global) ->
      if Layout.is_reserved g.gname then
        raise (Error (Printf.sprintf "global %S uses a name reserved for compiler data" g.gname)))
    prog.globals

let compile_unit ~mode ~options ~taint_returns ~keep_taint_markers ~scratch_addr
    (name, (items, data_refs)) =
  let items =
    Instrument.instrument ~mode ~options ~keep_taint_markers ~scratch_addr
      ~is_start:(name = "_start")
      (insert_return_taints ~taint_returns items)
  in
  (* the pass hands untouched instructions back as the same records, in
     the order codegen emitted them *)
  let size, relocs, _ =
    List.fold_left
      (fun (k, relocs, pending) -> function
        | Program.Label _ -> (k, relocs, pending)
        | Program.I i -> (
            match pending with
            | (r, sym) :: rest when r == i -> (k + 1, (k, sym) :: relocs, rest)
            | _ -> (k + 1, relocs, pending)))
      (0, [], data_refs) items
  in
  { name; items; size; relocs = List.rev relocs }

(* Point each relocation at the segment's own boxed address, so the
   image shares it with [data] and [symbols] exactly as a unit compiled
   against this segment would. *)
let relocate dataseg u =
  if u.relocs = [] then u.items
  else
    let k = ref (-1) and pending = ref u.relocs in
    List.map
      (fun item ->
        match (item, !pending) with
        | Program.Label _, _ -> item
        | Program.I i, (at, sym) :: rest -> (
            incr k;
            match i.op with
            | Instr.Movi (d, _) when at = !k ->
                pending := rest;
                Program.I { i with op = Instr.Movi (d, Layout.Dataseg.symbol dataseg sym) }
            | _ -> item)
        | Program.I _, [] -> item)
      u.items

let gen_units dataseg funcs =
  try List.map (fun (f : Ir.func) -> (f.fname, Codegen.gen_func dataseg f)) funcs
  with Codegen.Codegen_error msg -> raise (Error msg)

let library ?(mode = Mode.Uninstrumented) ?(options = default_options) ?(taint_returns = [])
    ?(keep_taint_markers = false) (ir : Ir.program) =
  check_program ir;
  let callees = Ir.callees ir in
  let taint_returns = called ~callees taint_returns in
  let dataseg = Layout.Dataseg.create () in
  List.iter (Layout.Dataseg.add_global dataseg) ir.globals;
  let scratch_addr = Layout.Dataseg.symbol dataseg Layout.scratch_symbol in
  let units =
    List.map
      (compile_unit ~mode ~options ~taint_returns ~keep_taint_markers ~scratch_addr)
      (gen_units dataseg ir.funcs)
  in
  {
    ir;
    callees;
    mode;
    options;
    keep_taint_markers;
    taint_returns;
    literals = Layout.Dataseg.literals dataseg;
    units;
  }

let compile ?(mode = Mode.Uninstrumented) ?(options = default_options) ?(taint_returns = [])
    ?(keep_taint_markers = false) ?lib (prog : Ir.program) =
  let lib =
    match lib with
    | None -> library ~mode ~options ~keep_taint_markers Ir.empty
    | Some lib ->
        if
          lib.mode <> mode || lib.options <> options
          || lib.keep_taint_markers <> keep_taint_markers
          || lib.taint_returns <> called ~callees:lib.callees taint_returns
        then invalid_arg "Compile.compile: library built for other settings";
        lib
  in
  let whole = Ir.merge lib.ir prog in
  check_program whole;
  if Ir.find_func whole "main" = None then raise (Error "program has no main function");
  (* the library's data first, in the order a whole-program compile
     would lay it out: its globals, the application's, then the
     literals the library's code interned *)
  let dataseg = Layout.Dataseg.create () in
  List.iter (Layout.Dataseg.add_global dataseg) whole.globals;
  List.iter (fun s -> ignore (Layout.Dataseg.intern_string dataseg s)) lib.literals;
  let scratch_addr = Layout.Dataseg.symbol dataseg Layout.scratch_symbol in
  let compile_unit = compile_unit ~mode ~options ~taint_returns ~keep_taint_markers ~scratch_addr in
  let start = compile_unit ("_start", (Codegen.gen_start (), [])) in
  let app = List.map compile_unit (gen_units dataseg prog.funcs) in
  let units = (start :: lib.units) @ app in
  let program =
    try
      Program.assemble
        (List.concat
           ((start.items :: List.map (relocate dataseg) lib.units)
           @ List.map (fun u -> u.items) app
           @ [ Instrument.support_units ~mode ]))
    with Program.Assembly_error msg -> raise (Error msg)
  in
  Image.make ~program ~data:(Layout.Dataseg.chunks dataseg)
    ~symbols:(Layout.Dataseg.symbols dataseg) ~mode
    ~func_sizes:(List.map (fun u -> (u.name, u.size)) units)
