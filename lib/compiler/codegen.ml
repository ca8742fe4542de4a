open Shift_isa

let intrinsics =
  [
    ("sys_exit", (Sysno.exit_, 1));
    ("sys_read", (Sysno.read, 3));
    ("sys_write", (Sysno.write, 3));
    ("sys_open", (Sysno.open_, 1));
    ("sys_close", (Sysno.close, 1));
    ("sys_recv", (Sysno.recv, 3));
    ("sys_send", (Sysno.send, 3));
    ("sys_sbrk", (Sysno.sbrk, 1));
    ("sys_sendfile", (Sysno.sendfile, 3));
    ("sys_system", (Sysno.system, 1));
    ("sys_sql_exec", (Sysno.sql_exec, 1));
    ("sys_html_out", (Sysno.html_out, 2));
    ("sys_taint_set", (Sysno.taint_set, 3));
    ("sys_taint_chk", (Sysno.taint_chk, 2));
    ("sys_accept", (Sysno.accept, 0));
    ("sys_spawn", (Sysno.spawn, 2));
    ("sys_join", (Sysno.join, 1));
    ("sys_fork", (Sysno.fork, 0));
    ("sys_exec", (Sysno.exec, 2));
    ("sys_wait", (Sysno.wait, 1));
    ("sys_pipe", (Sysno.pipe, 1));
    ("sys_dup", (Sysno.dup, 1));
    ("sys_getpid", (Sysno.getpid, 0));
    ("sys_getarg", (Sysno.getarg, 2));
  ]

(* [untaint e]: the compiler builtin behind the paper's bounds-checking
   and translation-table rules (§3.3.2): application-specific rules tell
   SHIFT a value has been validated, and the instrumentation clears its
   tag.  Codegen emits a [clrnat]; the instrumentation pass lowers it
   per mode (spill/fill on the base ISA, [clrnat] with enhancement 1, a
   shadow-table clear under software DBT). *)
let untaint_builtin = "untaint"

(* [fetchadd a n]: the IA-64 atomic read-modify-write, for guest
   synchronisation (ticket locks in the runtime library) *)
let fetchadd_builtin = "fetchadd"

let externals = untaint_builtin :: fetchadd_builtin :: List.map fst intrinsics

(* register pools *)
let first_var_reg = 40
let var_reg_count = 24
let first_temp_reg = 64
let temp_reg_count = 56 (* r64-r119; r120 belongs to the instrumentation *)
let addr_scratch = 126

(* codegen predicates (p1/p2); p6/p7 belong to the instrumentation *)
let pt = 1
let pf = 2

(* frame: a fixed save area for vars and temps, then arrays, then
   spilled scalars *)
let save_slots = var_reg_count + temp_reg_count
let save_area = 8 * save_slots

let save_slot_of_reg r =
  if r >= first_var_reg && r < first_var_reg + var_reg_count then 8 * (r - first_var_reg)
  else if r >= first_temp_reg && r < first_temp_reg + temp_reg_count then
    8 * (var_reg_count + (r - first_temp_reg))
  else invalid_arg "save_slot_of_reg"

exception Codegen_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

type ctx = {
  dataseg : Layout.Dataseg.t;
  fname : string;
  var_reg : (string, Reg.t) Hashtbl.t;
  var_slot : (string, int) Hashtbl.t;
  arr_off : (string, int) Hashtbl.t;
  frame_size : int;
  epilogue : string;
  mutable temp_sp : int;
  mutable items : Program.item list; (* reversed *)
  mutable data_refs : (Instr.t * string) list; (* movi of a data address, reversed *)
  mutable loops : (string * string) list; (* (break, continue) *)
  mutable labels : int;
  (* out-of-line recovery blocks for Guard statements: (recovery label,
     continuation label, handler body, loop context at the guard) *)
  mutable recoveries : (string * string * Ir.block * (string * string) list) list;
}

let emit ctx op = ctx.items <- Program.I (Instr.mk op) :: ctx.items
let emitq ctx qp op = ctx.items <- Program.I (Instr.mk ~qp op) :: ctx.items

(* a [movi] of a data address, remembered with its symbol so the unit
   can be relocated into another program's data segment *)
let emit_data_addr ctx dst (sym, addr) =
  let i = Instr.mk (Instr.Movi (dst, addr)) in
  ctx.items <- Program.I i :: ctx.items;
  ctx.data_refs <- (i, sym) :: ctx.data_refs

let place_label ctx l = ctx.items <- Program.Label l :: ctx.items

let fresh_label ctx hint =
  ctx.labels <- ctx.labels + 1;
  Printf.sprintf "%s$%s%d" ctx.fname hint ctx.labels

let alloc_temp ctx =
  if ctx.temp_sp >= first_temp_reg + temp_reg_count then
    err "function %S: expression too deep (out of temporaries)" ctx.fname;
  let r = ctx.temp_sp in
  ctx.temp_sp <- ctx.temp_sp + 1;
  r

let free_temp ctx r =
  if r <> ctx.temp_sp - 1 then err "temporary freed out of order in %S" ctx.fname;
  ctx.temp_sp <- ctx.temp_sp - 1

let with_temp ctx f =
  let r = alloc_temp ctx in
  let y = f r in
  free_temp ctx r;
  y

let width_of : Ir.width -> Instr.width = function
  | Ir.W1 -> Instr.W1
  | Ir.W2 -> Instr.W2
  | Ir.W4 -> Instr.W4
  | Ir.W8 -> Instr.W8

(* frame-offset addressing through the dedicated scratch register *)
let frame_addr ctx off =
  emit ctx (Instr.Arith (Instr.Add, addr_scratch, Reg.sp, Instr.Imm (Int64.of_int off)));
  addr_scratch

let cmp_cond_of : Ir.binop -> Cond.t option = function
  | Ir.Eq -> Some Cond.Eq
  | Ir.Ne -> Some Cond.Ne
  | Ir.Lt -> Some Cond.Lt
  | Ir.Le -> Some Cond.Le
  | Ir.Gt -> Some Cond.Gt
  | Ir.Ge -> Some Cond.Ge
  | Ir.Ltu -> Some Cond.Ltu
  | Ir.Geu -> Some Cond.Geu
  | _ -> None

let arith_of : Ir.binop -> Instr.arith option = function
  | Ir.Add -> Some Instr.Add
  | Ir.Sub -> Some Instr.Sub
  | Ir.Mul -> Some Instr.Mul
  | Ir.Div -> Some Instr.Div
  | Ir.Rem -> Some Instr.Rem
  | Ir.Band -> Some Instr.And
  | Ir.Bor -> Some Instr.Or
  | Ir.Bxor -> Some Instr.Xor
  | Ir.Shl -> Some Instr.Shl
  | Ir.Shr -> Some Instr.Shr
  | Ir.Sar -> Some Instr.Sar
  | _ -> None

let live_regs ctx ~up_to =
  let vars = Hashtbl.fold (fun _ r acc -> r :: acc) ctx.var_reg [] in
  let temps = ref [] in
  for r = up_to - 1 downto first_temp_reg do
    temps := r :: !temps
  done;
  List.sort_uniq compare (vars @ !temps)

let save_regs ctx regs =
  List.iter
    (fun r ->
      let a = frame_addr ctx (save_slot_of_reg r) in
      emit ctx (Instr.St { width = Instr.W8; addr = a; src = r; spill = true }))
    regs

let restore_regs ctx regs =
  List.iter
    (fun r ->
      let a = frame_addr ctx (save_slot_of_reg r) in
      emit ctx (Instr.Ld { width = Instr.W8; dst = r; addr = a; spec = false; fill = true }))
    regs

let rec emit_expr ctx (e : Ir.expr) dst =
  match e with
  | Ir.Int v -> emit ctx (Instr.Movi (dst, v))
  | Ir.Str s -> emit_data_addr ctx dst (Layout.Dataseg.intern_string ctx.dataseg s)
  | Ir.Var x -> (
      match Hashtbl.find_opt ctx.var_reg x with
      | Some r -> emit ctx (Instr.Mov (dst, r))
      | None -> (
          match Hashtbl.find_opt ctx.var_slot x with
          | Some off ->
              let a = frame_addr ctx off in
              emit ctx (Instr.Ld { width = Instr.W8; dst; addr = a; spec = false; fill = false })
          | None -> (
              match Hashtbl.find_opt ctx.arr_off x with
              | Some off ->
                  emit ctx (Instr.Arith (Instr.Add, dst, Reg.sp, Instr.Imm (Int64.of_int off)))
              | None -> (
                  match Layout.Dataseg.symbol ctx.dataseg x with
                  | addr -> emit_data_addr ctx dst (x, addr)
                  | exception Not_found -> err "unbound variable %S in %S" x ctx.fname))))
  | Ir.Load (w, a) ->
      emit_expr ctx a dst;
      emit ctx (Instr.Ld { width = width_of w; dst; addr = dst; spec = false; fill = false })
  | Ir.Unop (Ir.Neg, a) ->
      emit_expr ctx a dst;
      emit ctx (Instr.Arith (Instr.Sub, dst, Reg.zero, Instr.R dst))
  | Ir.Unop (Ir.Bnot, a) ->
      emit_expr ctx a dst;
      emit ctx (Instr.Arith (Instr.Xor, dst, dst, Instr.Imm (-1L)))
  | Ir.Unop (Ir.Lnot, a) ->
      emit_expr ctx a dst;
      emit ctx
        (Instr.Cmp { cond = Cond.Eq; pt; pf; src1 = dst; src2 = Instr.Imm 0L; taint_aware = false });
      emit ctx (Instr.Movi (dst, 0L));
      emitq ctx pt (Instr.Movi (dst, 1L))
  | Ir.Binop (Ir.Land, a, b) ->
      let l_end = fresh_label ctx "and" in
      emit_expr ctx a dst;
      emit ctx
        (Instr.Cmp { cond = Cond.Eq; pt; pf; src1 = dst; src2 = Instr.Imm 0L; taint_aware = false });
      emit ctx (Instr.Movi (dst, 0L));
      emitq ctx pt (Instr.Br l_end);
      emit_expr ctx b dst;
      emit ctx
        (Instr.Cmp { cond = Cond.Ne; pt; pf; src1 = dst; src2 = Instr.Imm 0L; taint_aware = false });
      emit ctx (Instr.Movi (dst, 0L));
      emitq ctx pt (Instr.Movi (dst, 1L));
      place_label ctx l_end
  | Ir.Binop (Ir.Lor, a, b) ->
      let l_end = fresh_label ctx "or" in
      emit_expr ctx a dst;
      emit ctx
        (Instr.Cmp { cond = Cond.Ne; pt; pf; src1 = dst; src2 = Instr.Imm 0L; taint_aware = false });
      emit ctx (Instr.Movi (dst, 1L));
      emitq ctx pt (Instr.Br l_end);
      emit_expr ctx b dst;
      emit ctx
        (Instr.Cmp { cond = Cond.Ne; pt; pf; src1 = dst; src2 = Instr.Imm 0L; taint_aware = false });
      emit ctx (Instr.Movi (dst, 0L));
      emitq ctx pt (Instr.Movi (dst, 1L));
      place_label ctx l_end
  | Ir.Binop (op, a, b) -> (
      match arith_of op with
      | Some ar ->
          emit_expr ctx a dst;
          with_temp ctx (fun t2 ->
              emit_expr ctx b t2;
              emit ctx (Instr.Arith (ar, dst, dst, Instr.R t2)))
      | None -> (
          match cmp_cond_of op with
          | Some cond ->
              emit_expr ctx a dst;
              with_temp ctx (fun t2 ->
                  emit_expr ctx b t2;
                  emit ctx
                    (Instr.Cmp { cond; pt; pf; src1 = dst; src2 = Instr.R t2; taint_aware = false }));
              emit ctx (Instr.Movi (dst, 0L));
              emitq ctx pt (Instr.Movi (dst, 1L))
          | None -> err "unhandled binop in %S" ctx.fname))
  | Ir.Fnptr f -> emit ctx (Instr.Lea (dst, f))
  | Ir.Call (f, args) -> emit_call ctx f args dst
  | Ir.Icall (f, args) ->
      if List.length args > Reg.max_args then
        err "indirect call with more than %d arguments in %S" Reg.max_args ctx.fname;
      let base = ctx.temp_sp in
      let tf = alloc_temp ctx in
      emit_expr ctx f tf;
      let temps =
        List.map
          (fun a ->
            let t = alloc_temp ctx in
            emit_expr ctx a t;
            t)
          args
      in
      let saved = live_regs ctx ~up_to:base in
      save_regs ctx saved;
      List.iteri (fun i t -> emit ctx (Instr.Mov (Reg.arg i, t))) temps;
      List.iter (fun t -> free_temp ctx t) (List.rev temps);
      emit ctx (Instr.Call_reg tf);
      free_temp ctx tf;
      restore_regs ctx saved;
      emit ctx (Instr.Mov (dst, Reg.ret))

and emit_call ctx f args dst =
  if f = untaint_builtin then begin
    match args with
    | [ a ] ->
        emit_expr ctx a dst;
        emit ctx (Instr.Clrnat dst)
    | _ -> err "untaint takes exactly one argument (in %S)" ctx.fname
  end
  else if f = fetchadd_builtin then begin
    match args with
    | [ a; n ] ->
        with_temp ctx (fun ta ->
            emit_expr ctx a ta;
            with_temp ctx (fun tn ->
                emit_expr ctx n tn;
                emit ctx (Instr.Fetchadd { dst; addr = ta; inc = tn })))
    | _ -> err "fetchadd takes exactly two arguments (in %S)" ctx.fname
  end
  else
  match List.assoc_opt f intrinsics with
  | Some (sysno, arity) ->
      if List.length args <> arity then
        err "intrinsic %S called with %d arguments, expected %d in %S" f (List.length args)
          arity ctx.fname;
      let temps =
        List.map
          (fun a ->
            let t = alloc_temp ctx in
            emit_expr ctx a t;
            t)
          args
      in
      List.iteri (fun i t -> emit ctx (Instr.Mov (Reg.sysarg i, t))) temps;
      List.iter (fun t -> free_temp ctx t) (List.rev temps);
      emit ctx (Instr.Movi (Reg.sysnum, Int64.of_int sysno));
      emit ctx Instr.Syscall;
      emit ctx (Instr.Mov (dst, Reg.ret))
  | None ->
      if List.length args > Reg.max_args then
        err "call to %S with more than %d arguments in %S" f Reg.max_args ctx.fname;
      let base = ctx.temp_sp in
      let temps =
        List.map
          (fun a ->
            let t = alloc_temp ctx in
            emit_expr ctx a t;
            t)
          args
      in
      let saved = live_regs ctx ~up_to:base in
      save_regs ctx saved;
      List.iteri (fun i t -> emit ctx (Instr.Mov (Reg.arg i, t))) temps;
      List.iter (fun t -> free_temp ctx t) (List.rev temps);
      emit ctx (Instr.Call f);
      restore_regs ctx saved;
      emit ctx (Instr.Mov (dst, Reg.ret))

(* Branch on a condition: leaves pt = condition, pf = its negation.
   Comparisons at the top of the condition compile directly to [cmp]. *)
let emit_cond ctx (e : Ir.expr) =
  match e with
  | Ir.Binop (op, a, b) when cmp_cond_of op <> None ->
      let cond = Option.get (cmp_cond_of op) in
      with_temp ctx (fun t1 ->
          emit_expr ctx a t1;
          with_temp ctx (fun t2 ->
              emit_expr ctx b t2;
              emit ctx (Instr.Cmp { cond; pt; pf; src1 = t1; src2 = Instr.R t2; taint_aware = false })))
  | _ ->
      with_temp ctx (fun t ->
          emit_expr ctx e t;
          emit ctx
            (Instr.Cmp { cond = Cond.Ne; pt; pf; src1 = t; src2 = Instr.Imm 0L; taint_aware = false }))

let rec emit_stmt ctx (s : Ir.stmt) =
  match s with
  | Ir.Assign (x, e) -> (
      match Hashtbl.find_opt ctx.var_reg x with
      | Some home ->
          with_temp ctx (fun t ->
              emit_expr ctx e t;
              emit ctx (Instr.Mov (home, t)))
      | None -> (
          match Hashtbl.find_opt ctx.var_slot x with
          | Some off ->
              with_temp ctx (fun t ->
                  emit_expr ctx e t;
                  let a = frame_addr ctx off in
                  emit ctx (Instr.St { width = Instr.W8; addr = a; src = t; spill = false }))
          | None -> err "assignment to unknown scalar %S in %S" x ctx.fname))
  | Ir.Store (w, a, v) ->
      with_temp ctx (fun t1 ->
          emit_expr ctx a t1;
          with_temp ctx (fun t2 ->
              emit_expr ctx v t2;
              emit ctx (Instr.St { width = width_of w; addr = t1; src = t2; spill = false })))
  | Ir.If (c, bt, bf) ->
      let l_else = fresh_label ctx "else" in
      let l_end = fresh_label ctx "endif" in
      emit_cond ctx c;
      emitq ctx pf (Instr.Br (if bf = [] then l_end else l_else));
      List.iter (emit_stmt ctx) bt;
      if bf <> [] then begin
        emit ctx (Instr.Br l_end);
        place_label ctx l_else;
        List.iter (emit_stmt ctx) bf
      end;
      place_label ctx l_end
  | Ir.While (c, b) ->
      let l_cont = fresh_label ctx "cont" in
      let l_break = fresh_label ctx "break" in
      place_label ctx l_cont;
      emit_cond ctx c;
      emitq ctx pf (Instr.Br l_break);
      ctx.loops <- (l_break, l_cont) :: ctx.loops;
      List.iter (emit_stmt ctx) b;
      ctx.loops <- List.tl ctx.loops;
      emit ctx (Instr.Br l_cont);
      place_label ctx l_break
  | Ir.Return (Some e) ->
      with_temp ctx (fun t ->
          emit_expr ctx e t;
          emit ctx (Instr.Mov (Reg.ret, t)));
      emit ctx (Instr.Br ctx.epilogue)
  | Ir.Return None ->
      emit ctx (Instr.Movi (Reg.ret, 0L));
      emit ctx (Instr.Br ctx.epilogue)
  | Ir.Expr e -> with_temp ctx (fun t -> emit_expr ctx e t)
  | Ir.Break -> (
      match ctx.loops with
      | (l_break, _) :: _ -> emit ctx (Instr.Br l_break)
      | [] -> err "break outside loop in %S" ctx.fname)
  | Ir.Continue -> (
      match ctx.loops with
      | (_, l_cont) :: _ -> emit ctx (Instr.Br l_cont)
      | [] -> err "continue outside loop in %S" ctx.fname)
  | Ir.Guard (e, handler) ->
      (* §3.3.3: a chk.s on the value redirects to an out-of-line
         recovery block when the tag is set; the block is emitted after
         the function body, like real speculation recovery code *)
      let l_rec = fresh_label ctx "guard" in
      let l_cont = fresh_label ctx "guarded" in
      with_temp ctx (fun t ->
          emit_expr ctx e t;
          emit ctx (Instr.Chk_s { src = t; recovery = l_rec }));
      place_label ctx l_cont;
      ctx.recoveries <- (l_rec, l_cont, handler, ctx.loops) :: ctx.recoveries

let align16 n = (n + 15) land lnot 15

let gen_func dataseg (f : Ir.func) =
  if List.length f.params > Reg.max_args then
    err "function %S has %d parameters; at most %d fit the argument registers"
      f.fname (List.length f.params) Reg.max_args;
  let var_reg = Hashtbl.create 16 in
  let var_slot = Hashtbl.create 4 in
  let arr_off = Hashtbl.create 4 in
  (* scalar homes: params first, then scalar locals; overflow spills *)
  let scalars =
    f.params @ List.filter_map (fun (l : Ir.local) -> if l.array = None then Some l.lname else None) f.locals
  in
  let next_off = ref save_area in
  List.iteri
    (fun i name ->
      if i < var_reg_count then Hashtbl.add var_reg name (first_var_reg + i)
      else begin
        Hashtbl.add var_slot name !next_off;
        next_off := !next_off + 8
      end)
    scalars;
  List.iter
    (fun (l : Ir.local) ->
      match l.array with
      | Some n ->
          Hashtbl.add arr_off l.lname !next_off;
          next_off := !next_off + ((n + 7) land lnot 7)
      | None -> ())
    f.locals;
  let frame_size = align16 !next_off in
  let ctx =
    {
      dataseg;
      fname = f.fname;
      var_reg;
      var_slot;
      arr_off;
      frame_size;
      epilogue = f.fname ^ "$epilogue";
      temp_sp = first_temp_reg;
      items = [];
      data_refs = [];
      loops = [];
      labels = 0;
      recoveries = [];
    }
  in
  place_label ctx f.fname;
  emit ctx (Instr.Arith (Instr.Add, Reg.sp, Reg.sp, Instr.Imm (Int64.of_int (-frame_size))));
  List.iteri
    (fun i p ->
      match Hashtbl.find_opt var_reg p with
      | Some home -> emit ctx (Instr.Mov (home, Reg.arg i))
      | None ->
          let off = Hashtbl.find var_slot p in
          let a = frame_addr ctx off in
          emit ctx (Instr.St { width = Instr.W8; addr = a; src = Reg.arg i; spill = false }))
    f.params;
  List.iter (emit_stmt ctx) f.body;
  emit ctx (Instr.Movi (Reg.ret, 0L));
  place_label ctx ctx.epilogue;
  emit ctx (Instr.Arith (Instr.Add, Reg.sp, Reg.sp, Instr.Imm (Int64.of_int frame_size)));
  emit ctx Instr.Ret;
  (* guard recovery blocks, out of line; handlers may contain further
     guards, so drain until none are pending *)
  let rec drain () =
    match ctx.recoveries with
    | [] -> ()
    | (l_rec, l_cont, handler, loops) :: rest ->
        ctx.recoveries <- rest;
        let saved_loops = ctx.loops in
        ctx.loops <- loops;
        place_label ctx l_rec;
        List.iter (emit_stmt ctx) handler;
        emit ctx (Instr.Br l_cont);
        ctx.loops <- saved_loops;
        drain ()
  in
  drain ();
  (List.rev ctx.items, List.rev ctx.data_refs)

let gen_start () =
  [
    Program.Label "_start";
    Program.I (Instr.mk (Instr.Movi (Reg.sp, Layout.stack_top)));
    Program.I (Instr.mk (Instr.Call "main"));
    Program.I (Instr.mk Instr.Halt);
  ]
