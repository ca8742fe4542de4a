open Shift_isa
module Gran = Shift_mem.Granularity

(* instrumentation temporaries, reserved by the register convention *)
let t1 = 121
let t2 = 122
let t3 = 123
let t4 = 124
let t5 = 125
let t6 = 120 (* stripped-address register for the Propagate pointer policy *)

(* instrumentation predicates *)
let p6 = 6
let p7 = 7
let p8 = 8 (* address-tainted, under the Propagate pointer policy *)
let p9 = 9

let invalid_address = Int64.shift_left 1L 45 (* an unimplemented bit *)

let ins ?(qp = Pred.p0) prov op = Program.I (Instr.mk ~qp ~prov op)

(* tag-address computation (Figure 4): fold the region number down and
   combine it with the shifted implemented offset bits; leaves the tag
   address in [t1], clobbers [t2].  [r29] holds the implemented-bits
   mask. *)
let tag_addr_code ~prov ~gran ra =
  let tag_shift = match gran with Gran.Byte -> 3 | Gran.Word -> 6 in
  [
    ins prov (Instr.Arith (Instr.Shr, t2, ra, Instr.Imm (Int64.of_int Shift_mem.Addr.region_shift)));
    ins prov (Instr.Arith (Instr.Shl, t2, t2, Instr.Imm (Int64.of_int (Shift_mem.Addr.impl_bits - 3))));
    ins prov (Instr.Arith (Instr.And, t1, ra, Instr.R Reg.impl_mask));
    ins prov (Instr.Arith (Instr.Shr, t1, t1, Instr.Imm (Int64.of_int tag_shift)));
    ins prov (Instr.Arith (Instr.Or, t1, t1, Instr.R t2));
  ]

(* leaves the access's tag mask in [t5], using [t4].  Word granularity:
   a single bit.  Byte granularity: [width] bits starting at the byte's
   bit position — the shifted mask may extend into the next bitmap
   byte, which the multi-byte sequences handle explicitly.  Computing a
   byte-level tag is more complex than a word-level one, the driver of
   the paper's byte-vs-word gap (§6.4). *)
let tag_mask_code ~prov ~gran ~width ra =
  match gran with
  | Gran.Word ->
      [
        ins prov (Instr.Extr { dst = t4; src = ra; pos = 3; len = 3 });
        ins prov (Instr.Movi (t5, 1L));
        ins prov (Instr.Arith (Instr.Shl, t5, t5, Instr.R t4));
      ]
  | Gran.Byte ->
      let bits = Int64.of_int ((1 lsl Instr.bytes_of_width width) - 1) in
      [
        ins prov (Instr.Arith (Instr.And, t4, ra, Instr.Imm 7L));
        ins prov (Instr.Movi (t5, bits));
        ins prov (Instr.Arith (Instr.Shl, t5, t5, Instr.R t4));
      ]

(* Byte granularity emits one uniform sequence for every access width:
   the shifted mask may straddle two bitmap bytes, so a second
   check/update for the high half of the mask is always appended (for a
   one-byte access its mask is a single bit and the second half is a
   dynamic no-op, but the code is still there — the reason byte-level
   tracking needs more code and runs slower than word-level, §6.1,
   §6.4, Table 3). *)
let byte_straddles ~gran ~width:_ = gran = Gran.Byte

type nat_source_strategy = Per_function | Per_use
type pointer_policy = Fault_on_tainted_pointer | Propagate_pointer_taint

(* Ablation knobs for the compiler-optimization benches (DESIGN.md):
   [relax_all_compares] disables the static taint analysis and relaxes
   every compare, the unoptimized translation the paper's §4.4 starts
   from; [skip_save_restore] can be turned off to also instrument the
   compiler's own register save/restore spill traffic.

   §4.4's quantified observation: regenerating the NaT source at every
   use (instead of keeping it in a reserved register per function)
   "degrades the performance by a factor of 3X".  [Per_use] reproduces
   that costly strategy for the ablation bench.

   §3.3.2 "customizable policy for pointers": by default a tainted
   address faults at its first use (policies L1/L2).  Under
   [Propagate_pointer_taint] the instrumentation strips the address
   tag before the access and folds it into the loaded value / stored
   tag instead, so tainted pointers dereference legally but their
   results stay tainted. *)
type options = {
  relax_all_compares : bool;
  skip_save_restore : bool;
  nat_source_strategy : nat_source_strategy;
  pointer_policy : pointer_policy;
}

let default_options =
  {
    relax_all_compares = false;
    skip_save_restore = true;
    nat_source_strategy = Per_function;
    pointer_policy = Fault_on_tainted_pointer;
  }

(* returns (prelude, effective address register).  Under Propagate the
   prelude records the address tag in p8/p9 and leaves a stripped copy
   of the address in t6. *)
let pointer_prelude ~options ~prov ~enh ra =
  match options.pointer_policy with
  | Fault_on_tainted_pointer -> ([], ra)
  | Propagate_pointer_taint ->
      let strip =
        if enh.Mode.set_clear_nat then
          [ ins prov (Instr.Mov (t6, ra)); ins prov (Instr.Clrnat t6) ]
        else
          [
            ins prov (Instr.St { width = Instr.W8; addr = Reg.scratch_slot; src = ra; spill = true });
            ins prov (Instr.Ld { width = Instr.W8; dst = t6; addr = Reg.scratch_slot; spec = false; fill = false });
          ]
      in
      (ins prov (Instr.Tnat { pt = p8; pf = p9; src = ra }) :: strip, t6)

(* Word-level tracking of a sub-word store must not clear the word's
   tag: the other bytes of the word may still hold tainted data (e.g.
   the NUL terminator of a copied string would otherwise scrub the
   whole string's tag).  Setting is always safe; clearing only on
   full-word stores.  Byte granularity clears precisely. *)
let store_may_clear ~gran ~width =
  match gran with Gran.Byte -> true | Gran.Word -> width = Instr.W8

(* Figure 5, load: consult the bitmap, do the real load, conditionally
   taint the target. *)
let instrument_load ~options ~gran ~enh (i : Instr.t) ~width ~dst ~addr =
  let prelude, addr = pointer_prelude ~options ~prov:Prov.Ld_compute ~enh addr in
  let i =
    match i.op with
    | Instr.Ld l -> { i with op = Instr.Ld { l with addr } }
    | _ -> i
  in
  prelude
  @ tag_addr_code ~prov:Prov.Ld_compute ~gran addr
  @ [ ins Prov.Ld_mem (Instr.Ld { width = Instr.W1; dst = t3; addr = t1; spec = false; fill = false }) ]
  @ tag_mask_code ~prov:Prov.Ld_compute ~gran ~width addr
  @ [ ins Prov.Ld_compute (Instr.Arith (Instr.And, t3, t3, Instr.R t5)) ]
  @ (if byte_straddles ~gran ~width then
       [
         ins Prov.Ld_compute (Instr.Arith (Instr.Shr, t5, t5, Instr.Imm 8L));
         ins Prov.Ld_compute (Instr.Arith (Instr.Add, t1, t1, Instr.Imm 1L));
         ins Prov.Ld_mem (Instr.Ld { width = Instr.W1; dst = t4; addr = t1; spec = false; fill = false });
         ins Prov.Ld_compute (Instr.Arith (Instr.And, t4, t4, Instr.R t5));
         ins Prov.Ld_compute (Instr.Arith (Instr.Or, t3, t3, Instr.R t4));
       ]
     else [])
  @ [
      ins Prov.Ld_compute
        (Instr.Cmp { cond = Cond.Ne; pt = p6; pf = p7; src1 = t3; src2 = Instr.Imm 0L; taint_aware = false });
      Program.I i;
    ]
  @ (if enh.Mode.set_clear_nat then [ ins ~qp:p6 Prov.Ld_compute (Instr.Setnat dst) ]
     else
       (match options.nat_source_strategy with
       | Per_function -> []
       | Per_use ->
           (* the §4.4 worst case: conjure a fresh NaT source here *)
           [
             ins Prov.Nat_gen (Instr.Movi (Reg.nat_src, invalid_address));
             ins Prov.Nat_gen
               (Instr.Ld { width = Instr.W8; dst = Reg.nat_src; addr = Reg.nat_src; spec = true; fill = false });
           ])
       @ [ ins ~qp:p6 Prov.Ld_compute (Instr.Arith (Instr.Add, dst, dst, Instr.R Reg.nat_src)) ])
  @
  (* Propagate pointer policy: a tainted address taints the value *)
  match options.pointer_policy with
  | Fault_on_tainted_pointer -> []
  | Propagate_pointer_taint ->
      [
        (if enh.Mode.set_clear_nat then ins ~qp:p8 Prov.Ld_compute (Instr.Setnat dst)
         else ins ~qp:p8 Prov.Ld_compute (Instr.Arith (Instr.Add, dst, dst, Instr.R Reg.nat_src)));
      ]

(* Figure 5, store: test the source NaT, read-modify-write the bitmap,
   do the real store as a spill so a tainted source does not fault. *)
let instrument_store ~options ~gran ~enh (i : Instr.t) ~width ~addr ~src ~spill:_ =
  let prelude, addr = pointer_prelude ~options ~prov:Prov.St_compute ~enh addr in
  let real_store =
    match i.op with
    | Instr.St s -> { i with op = Instr.St { s with addr; spill = true } }
    | _ -> assert false
  in
  let rmw =
    [ ins ~qp:p6 Prov.St_compute (Instr.Arith (Instr.Or, t3, t3, Instr.R t5)) ]
    @ (if store_may_clear ~gran ~width then
         [ ins ~qp:p7 Prov.St_compute (Instr.Arith (Instr.Andcm, t3, t3, Instr.R t5)) ]
       else [])
    @
    (* Propagate pointer policy: a store through a tainted pointer
       taints the stored-to location regardless of the source *)
    match options.pointer_policy with
    | Fault_on_tainted_pointer -> []
    | Propagate_pointer_taint ->
        [ ins ~qp:p8 Prov.St_compute (Instr.Arith (Instr.Or, t3, t3, Instr.R t5)) ]
  in
  prelude
  @ [ ins Prov.St_compute (Instr.Tnat { pt = p6; pf = p7; src }) ]
  @ tag_addr_code ~prov:Prov.St_compute ~gran addr
  @ [ ins Prov.St_mem (Instr.Ld { width = Instr.W1; dst = t3; addr = t1; spec = false; fill = false }) ]
  @ tag_mask_code ~prov:Prov.St_compute ~gran ~width addr
  @ rmw
  @ [ ins Prov.St_mem (Instr.St { width = Instr.W1; addr = t1; src = t3; spill = false }) ]
  @ (if byte_straddles ~gran ~width then
       [
         ins Prov.St_compute (Instr.Arith (Instr.Shr, t5, t5, Instr.Imm 8L));
         ins Prov.St_compute (Instr.Arith (Instr.Add, t1, t1, Instr.Imm 1L));
         ins Prov.St_mem (Instr.Ld { width = Instr.W1; dst = t3; addr = t1; spec = false; fill = false });
       ]
       @ rmw
       @ [ ins Prov.St_mem (Instr.St { width = Instr.W1; addr = t1; src = t3; spill = false }) ]
     else [])
  @ [ Program.I real_store ]

(* NaT-stripping: copy a register's value into a scratch register with a
   clear NaT bit.  Without the set/clear enhancement this takes a
   spill/fill round trip through the scratch memory slot (paper §4.1);
   with it, a move plus [clrnat]. *)
let strip_code ~enh r ~into =
  if enh.Mode.set_clear_nat then
    [
      ins Prov.Cmp_relax (Instr.Mov (into, r));
      ins Prov.Cmp_relax (Instr.Clrnat into);
    ]
  else
    [
      ins Prov.Cmp_relax (Instr.St { width = Instr.W8; addr = Reg.scratch_slot; src = r; spill = true });
      ins Prov.Cmp_relax (Instr.Ld { width = Instr.W8; dst = into; addr = Reg.scratch_slot; spec = false; fill = false });
    ]

(* Compare relaxation (paper §4.1 "Relaxing NaT-sensitive
   Instructions"): a baseline cmp with a NaT operand clears both
   predicates, breaking programs that legitimately compare tainted data,
   so the operands are stripped into scratch registers first. *)
let instrument_cmp ~enh (i : Instr.t) ~cond ~cpt ~cpf ~src1 ~src2 =
  if enh.Mode.nat_aware_cmp then
    [
      Program.I
        { i with op = Instr.Cmp { cond; pt = cpt; pf = cpf; src1; src2; taint_aware = true } };
    ]
  else
    let strip1 = strip_code ~enh src1 ~into:t1 in
    let strip2, src2 =
      match src2 with
      | Instr.Imm _ as o -> ([], o)
      | Instr.R r -> (strip_code ~enh r ~into:t2, Instr.R t2)
    in
    strip1 @ strip2
    @ [
        Program.I
          { i with op = Instr.Cmp { cond; pt = cpt; pf = cpf; src1 = t1; src2; taint_aware = false } };
      ]

let natsrc_gen =
  [
    ins Prov.Nat_gen (Instr.Movi (Reg.nat_src, invalid_address));
    ins Prov.Nat_gen
      (Instr.Ld { width = Instr.W8; dst = Reg.nat_src; addr = Reg.nat_src; spec = true; fill = false });
  ]

let start_setup ~scratch_addr =
  [
    ins Prov.Nat_gen (Instr.Movi (Reg.impl_mask, Shift_mem.Addr.impl_mask));
    ins Prov.Nat_gen (Instr.Movi (Reg.scratch_slot, scratch_addr));
  ]

(* ------------------------------------------------------------------ *)
(* Software-DBT baseline (LIFT-like): register tags live in a shadow
   table at [shadow_base + regno]; every instruction propagates tags
   explicitly, and address registers are checked inline.               *)

let sh = Prov.Shadow

let shadow_read r ~into =
  [
    ins sh (Instr.Arith (Instr.Add, t1, Reg.scratch_slot, Instr.Imm (Int64.of_int r)));
    ins sh (Instr.Ld { width = Instr.W1; dst = into; addr = t1; spec = false; fill = false });
  ]

let shadow_write r ~from =
  [
    ins sh (Instr.Arith (Instr.Add, t1, Reg.scratch_slot, Instr.Imm (Int64.of_int r)));
    ins sh (Instr.St { width = Instr.W1; addr = t1; src = from; spill = false });
  ]

let shadow_check_addr r =
  shadow_read r ~into:t3
  @ [
      ins sh (Instr.Cmp { cond = Cond.Ne; pt = p6; pf = p7; src1 = t3; src2 = Instr.Imm 0L; taint_aware = false });
      ins ~qp:p6 sh (Instr.Br "__dbt_alert");
    ]

let dbt_instrument ~gran (i : Instr.t) =
  match i.op with
  | Instr.Movi (d, _) | Instr.Lea (d, _) ->
      (Program.I i :: ins sh (Instr.Movi (t3, 0L)) :: shadow_write d ~from:t3)
  | Instr.Mov (d, s) -> (Program.I i :: shadow_read s ~into:t3) @ shadow_write d ~from:t3
  | Instr.Arith (_, d, s1, o) ->
      let read2, combine =
        match o with
        | Instr.R s2 ->
            ( shadow_read s2 ~into:t4,
              [ ins sh (Instr.Arith (Instr.Or, t3, t3, Instr.R t4)) ] )
        | Instr.Imm _ -> ([], [])
      in
      (Program.I i :: shadow_read s1 ~into:t3) @ read2 @ combine @ shadow_write d ~from:t3
  | Instr.Ld { width; dst; addr; _ } ->
      shadow_check_addr addr
      @ tag_addr_code ~prov:sh ~gran addr
      @ [ ins sh (Instr.Ld { width = Instr.W1; dst = t3; addr = t1; spec = false; fill = false }) ]
      @ tag_mask_code ~prov:sh ~gran ~width addr
      @ [
          ins sh (Instr.Arith (Instr.And, t3, t3, Instr.R t5));
          ins sh (Instr.Cmp { cond = Cond.Ne; pt = p6; pf = p7; src1 = t3; src2 = Instr.Imm 0L; taint_aware = false });
          ins sh (Instr.Movi (t3, 0L));
          ins ~qp:p6 sh (Instr.Movi (t3, 1L));
          Program.I i;
        ]
      @ shadow_write dst ~from:t3
  | Instr.St { width; addr; src; _ } ->
      shadow_check_addr addr
      @ shadow_read src ~into:t3
      @ [
          ins sh (Instr.Cmp { cond = Cond.Ne; pt = p6; pf = p7; src1 = t3; src2 = Instr.Imm 0L; taint_aware = false });
        ]
      @ tag_addr_code ~prov:sh ~gran addr
      @ [ ins sh (Instr.Ld { width = Instr.W1; dst = t3; addr = t1; spec = false; fill = false }) ]
      @ tag_mask_code ~prov:sh ~gran ~width addr
      @ [ ins ~qp:p6 sh (Instr.Arith (Instr.Or, t3, t3, Instr.R t5)) ]
      @ (if store_may_clear ~gran ~width then
           [ ins ~qp:p7 sh (Instr.Arith (Instr.Andcm, t3, t3, Instr.R t5)) ]
         else [])
      @ [
          ins sh (Instr.St { width = Instr.W1; addr = t1; src = t3; spill = false });
          Program.I i;
        ]
  | Instr.Br_reg r | Instr.Call_reg r -> shadow_check_addr r @ [ Program.I i ]
  | Instr.Clrnat r ->
      (* the untaint builtin under software DBT: clear the shadow tag *)
      ins sh (Instr.Movi (t3, 0L)) :: shadow_write r ~from:t3
  | Instr.Setnat r ->
      (* configured taint source under software DBT: set the shadow tag *)
      ins sh (Instr.Movi (t3, 1L)) :: shadow_write r ~from:t3
  | _ -> [ Program.I i ]

(* ------------------------------------------------------------------ *)

let shift_instrument ~options ~gran ~enh ~analysis ~index (i : Instr.t) =
  let tainted r =
    options.relax_all_compares || Taint_analysis.may_be_tainted analysis ~index r
  in
  match i.op with
  | Instr.Clrnat r ->
      (* the untaint builtin: without the set/clear enhancement the tag
         is scrubbed with a spill/fill round trip (paper §4.1) *)
      if enh.Mode.set_clear_nat then
        [ ins Prov.Nat_gen (Instr.Clrnat r) ]
      else
        [
          ins Prov.Nat_gen (Instr.St { width = Instr.W8; addr = Reg.scratch_slot; src = r; spill = true });
          ins Prov.Nat_gen (Instr.Ld { width = Instr.W8; dst = r; addr = Reg.scratch_slot; spec = false; fill = false });
        ]
  | Instr.Setnat r ->
      (* a configured taint source (function return values, §3.3.1):
         without the enhancement the tag comes from the NaT source
         register *)
      if enh.Mode.set_clear_nat then [ ins Prov.Nat_gen (Instr.Setnat r) ]
      else [ ins Prov.Nat_gen (Instr.Arith (Instr.Add, r, r, Instr.R Reg.nat_src)) ]
  | (Instr.Ld { fill = true; _ } | Instr.St { spill = true; _ }) when options.skip_save_restore ->
      (* the compiler's own register save/restore traffic: the NaT bit
         rides through UNAT and the save slots are never read by
         anything else, so the bitmap needs no update (the compiler
         generated these accesses, it knows their semantics) *)
      [ Program.I i ]
  | Instr.Ld { width; dst; addr; spec; fill = _ } when not spec ->
      assert (i.qp = Pred.p0);
      instrument_load ~options ~gran ~enh i ~width ~dst ~addr
  | Instr.St { width; addr; src; spill } ->
      assert (i.qp = Pred.p0);
      instrument_store ~options ~gran ~enh i ~width ~addr ~src ~spill
  | Instr.Cmp { cond; pt; pf; src1; src2; taint_aware = false }
    when tainted src1 || (match src2 with Instr.R r -> tainted r | Instr.Imm _ -> false) ->
      (* only compares whose operands may carry a tag need relaxing;
         the analysis proves counters and other compiler temporaries
         clean (§3.3.2) *)
      assert (i.qp = Pred.p0);
      instrument_cmp ~enh i ~cond ~cpt:pt ~cpf:pf ~src1 ~src2
  | _ -> [ Program.I i ]

let instrument ~mode ~options ~keep_taint_markers ~scratch_addr ~is_start items =
  match mode with
  | Mode.Uninstrumented ->
      (* taint markers have no meaning (and a stray NaT would fault), so
         they are dropped — unless a decoupled tag backend consumes them
         as directives, in which case they stay and the machine skips
         the actual NaT write *)
      if keep_taint_markers then items
      else
        List.filter
          (function
            | Program.I { Instr.op = Instr.Setnat _ | Instr.Clrnat _; prov = Prov.Orig; _ } ->
                false
            | _ -> true)
          items
  | Mode.Shift { granularity; enh } ->
      let analysis = Taint_analysis.analyse items in
      let index = ref (-1) in
      let transformed =
        List.concat_map
          (fun item ->
            match item with
            | Program.Label _ -> [ item ]
            | Program.I i when i.Instr.prov = Prov.Orig ->
                incr index;
                shift_instrument ~options ~gran:granularity ~enh ~analysis ~index:!index i
            | Program.I _ ->
                incr index;
                [ item ])
          items
      in
      let entry_code =
        (if is_start then start_setup ~scratch_addr else [])
        @ (if enh.Mode.set_clear_nat then [] else natsrc_gen)
      in
      (match transformed with
      | Program.Label l :: rest -> (Program.Label l :: entry_code) @ rest
      | rest -> entry_code @ rest)
  | Mode.Software_dbt { granularity } ->
      let transformed =
        List.concat_map
          (fun item ->
            match item with
            | Program.Label _ -> [ item ]
            | Program.I i when i.Instr.prov = Prov.Orig -> dbt_instrument ~gran:granularity i
            | Program.I _ -> [ item ])
          items
      in
      let entry_code =
        if is_start then
          [
            ins sh (Instr.Movi (Reg.impl_mask, Shift_mem.Addr.impl_mask));
            ins sh (Instr.Movi (Reg.scratch_slot, Layout.shadow_base));
          ]
        else []
      in
      (match transformed with
      | Program.Label l :: rest -> (Program.Label l :: entry_code) @ rest
      | rest -> entry_code @ rest)

let support_units ~mode =
  match mode with
  | Mode.Software_dbt _ ->
      [
        Program.Label "__dbt_alert";
        ins sh (Instr.Movi (Reg.sysnum, Int64.of_int Sysno.dbt_alert));
        ins sh Instr.Syscall;
        ins sh Instr.Halt;
      ]
  | Mode.Uninstrumented | Mode.Shift _ -> []
