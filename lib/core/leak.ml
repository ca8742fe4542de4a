(* The speculation-contract leakage detector.

   A contract clause fixes what a microarchitectural attacker observes
   about an execution — its view of the hardware trace ({!Hwtrace}).
   A program leaks under a clause when two runs that differ only in
   *tainted* input bytes produce different observations: the secret
   steered the cache footprint, a flow NaT-based DIFT never sees
   because no tainted value reaches a policy sink.

   The detector is differential: run the same session under N input
   variants (variant 0 is the baseline), project each hardware trace
   through the clause, and flag the first divergence.  Because every
   engine in the repo is deterministic, any divergence is attributable
   to the input bytes that changed — and those are exactly the tainted
   ones, by construction of the variant setups.  The diverging access
   is then named precisely: its pc, the two set indexes, and (via the
   Flowtrace id its address register carried) the tainted input bytes
   that steered it.

   Deciding and explaining are two passes.  The observation pass runs
   every variant with Flowtrace off: the baseline records its hardware
   trace, and each later variant only follows it ({!Hw.follow}),
   keeping a count and its first mismatch.  Only a variant that
   diverges is explained: the baseline and that variant are re-run from
   the same starter, traced as configured, and their full traces are
   compared access by access.  Determinism makes the re-run diverge
   exactly where the observation did. *)

module Hw = Shift_machine.Hwtrace
module Ft = Shift_machine.Flowtrace

type clause =
  | Ct_seq  (* the set-index sequence of loads and stores is observable *)
  | Ct_none (* nothing is observable: the vacuous baseline clause *)

let clause_to_string = function Ct_seq -> "ct-seq" | Ct_none -> "ct-none"

let clause_of_string = function
  | "ct-seq" -> Ok Ct_seq
  | "ct-none" -> Ok Ct_none
  | s -> Error (Printf.sprintf "unknown contract clause %S (try ct-seq)" s)

type divergence = {
  d_variant : int;  (* the variant whose observation split from the baseline *)
  d_index : int;  (* index of the first diverging access *)
  d_pc : int;  (* guest pc of that access *)
  d_store : bool;
  d_set_base : int;  (* set index in the baseline; -1 = access absent *)
  d_set_variant : int;  (* set index in the variant; -1 = access absent *)
  d_tainted : string list;
      (* provenance of the diverging access's address, as
         ["input <channel>[<off>] via <origin>"] hops *)
}

type verdict = {
  v_clause : clause;
  v_variants : int;
  v_accesses : int;  (* baseline accesses visible under the clause *)
  v_dropped : int;  (* baseline accesses past the trace limit *)
  v_leak : bool;
  v_divergence : divergence option;
}

(* ---------- running variants ---------- *)

let run_variant start i =
  let live = start i in
  (match Session.advance live ~budget:max_int with `Finished _ | `Yielded -> ());
  live

let hwtrace_of live =
  match Session.hwtrace live with
  | Some hw -> hw
  | None ->
      invalid_arg "Leak.detect: the variant session has no hardware trace"

(* the observation pass: Flowtrace off from the first instruction, and
   the hardware trace recorded (baseline) or following the baseline's *)
let observe ?reference start i =
  let untraced i =
    let live = start i in
    Option.iter (fun ft -> ft.Ft.enabled <- false) (Session.flowtrace live);
    Option.iter (fun reference -> Hw.follow (hwtrace_of live) ~reference) reference;
    live
  in
  hwtrace_of (run_variant untraced i)

(* Resolve the Flowtrace id an access's address register carried into
   human-readable input-byte provenance.  Ids are interned per session,
   so each side resolves against its own trace; the rendered hops are
   comparable across sessions because they name stream offsets. *)
let address_provenance live id =
  if id = 0 then []
  else
    match Session.flowtrace live with
    | None -> []
    | Some ft -> (
        match Ft.source_of_id ft id with
        | None -> []
        | Some src ->
            [
              Printf.sprintf "input %s[%d] via %s" src.Ft.channel
                (Ft.input_offset src id) src.Ft.origin;
            ])

(* ---------- comparing observations ---------- *)

(* The first access at which two full traces differ in their ct-seq
   observation, the (store, set) sequence, or at which one ends. *)
let first_divergence ~variant base base_hw live hw =
  let nb = Hw.length base_hw and nv = Hw.length hw in
  let n = min nb nv in
  let rec scan i =
    if i < n then begin
      if Hw.set base_hw i <> Hw.set hw i || Hw.store base_hw i <> Hw.store hw i then
        Some
          {
            d_variant = variant;
            d_index = i;
            d_pc = Hw.pc hw i;
            d_store = Hw.store hw i;
            d_set_base = Hw.set base_hw i;
            d_set_variant = Hw.set hw i;
            d_tainted =
              (match address_provenance live (Hw.prov hw i) with
              | [] -> address_provenance base (Hw.prov base_hw i)
              | hops -> hops);
          }
      else scan (i + 1)
    end
    else if nb = nv then None
    else
      (* one run made more accesses: the trace *length* leaked *)
      let longer_live, longer = if nv > nb then (live, hw) else (base, base_hw) in
      Some
        {
          d_variant = variant;
          d_index = n;
          d_pc = Hw.pc longer n;
          d_store = Hw.store longer n;
          d_set_base = (if nb > n then Hw.set longer n else -1);
          d_set_variant = (if nv > n then Hw.set longer n else -1);
          d_tainted = address_provenance longer_live (Hw.prov longer n);
        }
  in
  scan 0

(* Under ct-seq a follower diverged when an access both runs made
   differs, or when one run made more accesses than the other; under
   ct-none nothing is observable, so nothing ever diverges. *)
let diverges clause ~base_hw hw =
  match clause with
  | Ct_none -> false
  | Ct_seq -> Hw.first_mismatch hw <> None || Hw.length hw <> Hw.length base_hw

let explain start i =
  let base = run_variant start 0 and live = run_variant start i in
  match first_divergence ~variant:i base (hwtrace_of base) live (hwtrace_of live) with
  | Some d -> d
  | None ->
      failwith
        (Printf.sprintf
           "Leak.detect: variant %d diverged from the baseline untraced but \
            not when re-run traced"
           i)

let detect ?(clause = Ct_seq) ~count ~start () =
  if count < 2 then invalid_arg "Leak.detect: need at least 2 variants";
  let base_hw = observe start 0 in
  let rec probe i =
    if i >= count then None
    else if diverges clause ~base_hw (observe ~reference:base_hw start i) then
      Some (explain start i)
    else probe (i + 1)
  in
  let divergence = probe 1 in
  {
    v_clause = clause;
    v_variants = count;
    v_accesses = (match clause with Ct_seq -> Hw.length base_hw | Ct_none -> 0);
    v_dropped = Hw.dropped base_hw;
    v_leak = divergence <> None;
    v_divergence = divergence;
  }

(* ---------- rendering ---------- *)

let divergence_to_json d =
  Results.Obj
    [
      ("variant", Results.Int d.d_variant);
      ("access", Results.Int d.d_index);
      ("pc", Results.Int d.d_pc);
      ("kind", Results.String (if d.d_store then "store" else "load"));
      ("set_baseline", Results.Int d.d_set_base);
      ("set_variant", Results.Int d.d_set_variant);
      ( "tainted_by",
        Results.List (List.map (fun h -> Results.String h) d.d_tainted) );
    ]

let verdict_to_json v =
  Results.Obj
    ([
       ("clause", Results.String (clause_to_string v.v_clause));
       ("variants", Results.Int v.v_variants);
       ("accesses", Results.Int v.v_accesses);
       ("dropped", Results.Int v.v_dropped);
       ("leak", Results.Bool v.v_leak);
     ]
    @
    match v.v_divergence with
    | None -> []
    | Some d -> [ ("divergence", divergence_to_json d) ])

(* One JSON object per recorded access — the exportable trace, written
   line by line with the same direct helpers as [Flow.jsonl].  The taint
   marker rides along so a reader can see which accesses were
   secret-steered without re-running the detector. *)
let trace_jsonl live =
  let hw = hwtrace_of live in
  let n = Hw.length hw in
  (* a line is 50-60 bytes unless it names tainted bytes *)
  let b = Buffer.create (64 + (64 * n)) in
  for i = 0 to n - 1 do
    Buffer.add_string b "{\"i\":";
    Results.add_int b i;
    Buffer.add_string b ",\"pc\":";
    Results.add_int b (Hw.pc hw i);
    Buffer.add_string b ",\"set\":";
    Results.add_int b (Hw.set hw i);
    Buffer.add_string b (if Hw.hit hw i then ",\"hit\":true" else ",\"hit\":false");
    Buffer.add_string b
      (if Hw.store hw i then ",\"kind\":\"store\"" else ",\"kind\":\"load\"");
    (match address_provenance live (Hw.prov hw i) with
    | [] -> ()
    | hops ->
        Buffer.add_string b ",\"tainted_by\":[";
        List.iteri
          (fun k hop ->
            if k > 0 then Buffer.add_char b ',';
            Results.add_escaped b hop)
          hops;
        Buffer.add_char b ']');
    Buffer.add_string b "}\n"
  done;
  Buffer.contents b

(* A short stable digest of the clause-visible observation (FNV-1a over
   the (store, set) sequence): what the bench stores so CI can assert
   superblocks-on/off identity without shipping whole traces. *)
let observation_digest hw =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let mix byte =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (byte land 0xff))) fnv_prime
  in
  for i = 0 to Hw.length hw - 1 do
    let set = Hw.set hw i in
    mix (if Hw.store hw i then 1 else 0);
    mix set;
    mix (set lsr 8)
  done;
  Printf.sprintf "%016Lx" !h

let pp_verdict ppf v =
  match v.v_divergence with
  | None ->
      Format.fprintf ppf
        "@[<v>clean under %s: %d variants, %d observable accesses, no \
         divergence@]"
        (clause_to_string v.v_clause) v.v_variants v.v_accesses
  | Some d ->
      Format.fprintf ppf
        "@[<v>LEAK under %s: variant %d diverges at access %d@,\
         pc %d %s: cache set %d (baseline) vs %d (variant)"
        (clause_to_string v.v_clause) d.d_variant d.d_index d.d_pc
        (if d.d_store then "store" else "load")
        d.d_set_base d.d_set_variant;
      List.iter (Format.fprintf ppf "@,steered by %s") d.d_tainted;
      Format.fprintf ppf "@]"
