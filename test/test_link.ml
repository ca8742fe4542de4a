(* The runtime library is compiled once per key and linked into every
   image.  The oracle is a whole-program compile of the merged program
   with no library: a linked image must match it byte for byte,
   [Marshal] sharing included, since snapshots embed images as
   [Marshal] payloads. *)

open Build
open Build.Infix
module Compile = Shift_compiler.Compile
module Mode = Shift_compiler.Mode
module Image = Shift_compiler.Image
module Runtime = Shift_runtime.Runtime
module Case = Shift_attacks.Attack_case
module Attacks = Shift_attacks.Attacks
module Spec = Shift_workloads.Spec

let tc = Util.tc

let bytes (image : Image.t) = Marshal.to_string image []

let oracle ~mode ~options ~taint_returns ~keep_taint_markers prog =
  Compile.compile ~mode ~options ~taint_returns ~keep_taint_markers
    (Ir.merge Runtime.program prog)

let case_programs (c : Case.t) = (c.Case.program_name, c.Case.program) :: c.Case.images

let programs ~mode =
  List.concat_map case_programs
    (Attacks.all @ Attacks.extended ~mode @ Attacks.multiproc @ Attacks.sidechannel)
  @ List.map (fun (k : Spec.kernel) -> (k.Spec.name, k.Spec.program)) Spec.all

let non_default =
  {
    Compile.relax_all_compares = true;
    skip_save_restore = false;
    nat_source_strategy = Per_use;
    pointer_policy = Propagate_pointer_taint;
  }

(* [strlen] and [itoa] are called inside the runtime itself, so the
   library's own code changes with this list *)
let settings =
  List.concat_map
    (fun keep_taint_markers ->
      List.concat_map
        (fun options ->
          List.map
            (fun taint_returns -> (keep_taint_markers, options, taint_returns))
            [ []; [ "strlen"; "itoa"; "main" ] ])
        [ Compile.default_options; non_default ])
    [ false; true ]

let oracle_test mode =
  tc (Printf.sprintf "linked = whole-program compile (%s)" (Mode.to_string mode)) (fun () ->
      let programs = programs ~mode in
      List.iter
        (fun (keep_taint_markers, options, taint_returns) ->
          let lib =
            Compile.library ~mode ~options ~taint_returns ~keep_taint_markers Runtime.program
          in
          List.iter
            (fun (name, prog) ->
              let linked =
                Compile.compile ~mode ~options ~taint_returns ~keep_taint_markers ~lib prog
              in
              if
                bytes linked
                <> bytes (oracle ~mode ~options ~taint_returns ~keep_taint_markers prog)
              then
                Alcotest.failf "%s: linked image differs (markers=%b, default options=%b, %s)"
                  name keep_taint_markers
                  (options = Compile.default_options)
                  (String.concat "," taint_returns))
            programs)
        settings)

(* the runtime's units sit right after [_start] *)
let runtime_range (image : Image.t) =
  let first = List.assoc "_start" image.func_sizes in
  let n = List.fold_left (fun acc f -> acc + List.assoc f image.func_sizes) 0 Runtime.names in
  (first, first + n)

let sharing_test =
  tc "images linked from one library share its instruction records" (fun () ->
      let mode = Mode.shift_byte in
      let lib = Compile.library ~mode Runtime.program in
      let gzip = Option.get (Spec.find "gzip") in
      let bftpd = Option.get (Attacks.find "bftpd") in
      let a = Compile.compile ~mode ~lib gzip.Spec.program in
      let b = Compile.compile ~mode ~lib bftpd.Case.program in
      let lo, hi = runtime_range a in
      Alcotest.(check (pair int int)) "same runtime range" (lo, hi) (runtime_range b);
      let shared = ref 0 in
      for k = lo to hi - 1 do
        let ia = a.program.code.(k) and ib = b.program.code.(k) in
        if ia == ib then incr shared
        else
          match (ia.op, ib.op) with
          | Shift_isa.Instr.Movi _, Shift_isa.Instr.Movi _ -> ()
          | _ -> Alcotest.failf "runtime instruction %d is not shared and not a data movi" k
      done;
      (* only the few movi of a string literal are patched per image *)
      Util.check_bool "almost every record shared" true (!shared > hi - lo - 16);
      let c = Compile.compile ~mode ~lib gzip.Spec.program in
      Util.check_bool "a relinked image equals the first" true (bytes a = bytes c))

let domains_test =
  tc "two domains building one new key get identical images" (fun () ->
      (* a key no other test builds, so both domains miss the memo *)
      let mode = Mode.Software_dbt { granularity = Shift_mem.Granularity.Byte } in
      let options = { non_default with skip_save_restore = true } in
      let taint_returns = [ "memcpy" ] in
      let prog = (Option.get (Spec.find "mcf")).Spec.program in
      let build () = bytes (Shift.Session.build ~options ~taint_returns ~mode prog) in
      let d1 = Domain.spawn build and d2 = Domain.spawn build in
      let i1 = Domain.join d1 and i2 = Domain.join d2 in
      Util.check_bool "identical" true (i1 = i2);
      Util.check_bool "equal to the whole-program compile" true
        (i1 = bytes (oracle ~mode ~options ~taint_returns ~keep_taint_markers:false prog)))

let mismatch_test =
  tc "a library refuses other settings" (fun () ->
      let lib = Compile.library ~mode:Mode.shift_word Runtime.program in
      let prog = Util.main_returning [ ret (i 0) ] in
      Alcotest.check_raises "mode" (Invalid_argument "Compile.compile: library built for other settings")
        (fun () -> ignore (Compile.compile ~mode:Mode.shift_byte ~lib prog));
      Alcotest.check_raises "taint_returns"
        (Invalid_argument "Compile.compile: library built for other settings") (fun () ->
          ignore (Compile.compile ~mode:Mode.shift_word ~taint_returns:[ "strlen" ] ~lib prog));
      (* an entry the runtime never calls does not change its code *)
      ignore (Compile.compile ~mode:Mode.shift_word ~taint_returns:[ "main" ] ~lib prog))

let reserved_test name =
  tc (Printf.sprintf "a global named %s is refused" name) (fun () ->
      let src = Printf.sprintf "global %s = \"x\";\nfunc main() { return strlen(\"abc\"); }\n" name in
      match Shift.Session.build ~mode:Mode.shift_word (Parse.program src) with
      | _ -> Alcotest.failf "%s compiled" name
      | exception Compile.Error msg ->
          Util.check_bool "message names the global" true (Str_exists.contains msg name))

let unreserved_test =
  tc "names that merely resemble compiler data are allowed" (fun () ->
      List.iter
        (fun name ->
          let prog =
            Util.main_returning ~globals:[ { Ir.gname = name; datum = Ir.Bytes "ok" } ]
              [ ret (call "strlen" [ v name ] +: call "strlen" [ str "abc" ]) ]
          in
          Util.check_i64 name 5L (Util.exit_code (Util.run_prog ~mode:Mode.shift_word prog)))
        [ "__str"; "__strx"; "__str1a"; "__scratchpad" ])

let suites =
  [
    ("compiler.link", List.map oracle_test Util.all_modes);
    ( "compiler.link-shape",
      [ sharing_test; domains_test; mismatch_test; reserved_test "__str1";
        reserved_test "__scratch"; unreserved_test ] );
  ]
