(* Extension case (policy L3): control-flow hijack through a tainted
   function pointer.

   A plugin host reads a dispatch record — "handler code address" — from
   its (untrusted) registry file.  Known handlers are validated against
   the host's own table and the pointer's tag is cleared (the
   check-then-trust pattern, §3.3.2); the bug is a legacy path that
   calls an unrecognised address anyway.  Under SHIFT the unvalidated
   pointer still carries its tag, and moving it into the branch
   register faults — policy L3, the paper's "tainted data cannot be
   moved into special registers". *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        func "handler_status" ~params:[] ~locals:[]
          [ ecall "println" [ str "status: ok" ]; ret (i 10) ];
        func "handler_reload" ~params:[] ~locals:[]
          [ ecall "println" [ str "reloading" ]; ret (i 20) ];
        (* a privileged routine that is present in the binary but never
           registered as a handler — the return-to-libc target *)
        func "maintenance_shell" ~params:[] ~locals:[]
          [ ecall "println" [ str "PWNED: maintenance shell reached" ]; ret (i 99) ];
        func "dispatch" ~params:[ "target" ] ~locals:[]
          [
            (* validate against the registered handlers; a match proves
               the value, so its tag is cleared *)
            when_ (v "target" ==: fnptr "handler_status")
              [ ret (icall (call "untaint" [ v "target" ]) []) ];
            when_ (v "target" ==: fnptr "handler_reload")
              [ ret (icall (call "untaint" [ v "target" ]) []) ];
            (* the bug: unknown "legacy" handlers are trusted blindly *)
            ecall "println" [ str "legacy handler" ];
            ret (icall (v "target") []);
          ];
        func "main" ~params:[]
          ~locals:[ scalar "fd"; array "buf" 16; scalar "target" ]
          [
            set "fd" (call "sys_open" [ str "plugins.reg" ]);
            when_ (v "fd" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 8 ]);
            set "target" (load64 (v "buf"));
            ret (call "dispatch" [ v "target" ]);
          ];
      ];
  }

let policy =
  { Shift_policy.Policy.default with Shift_policy.Policy.taint_files = true }

(* registry file: just the handler's code address.  A benign registry
   names a real handler; the attacker's registry smuggles an arbitrary
   one ("shellcode" elsewhere in memory). *)
let registry_for addr =
  let b = Buffer.create 8 in
  Buffer.add_int64_le b addr;
  Buffer.contents b

(* Registry contents hold real code addresses, which depend on the
   image the case runs (the attacker is assumed to know the binary): its
   effective mode and its backend, which keeps taint markers in the
   coprocessor's stream.  The case is therefore built per mode and
   backend, and every build shares one cache, so the addresses are read
   off the very image the case's runs start from, without compiling
   inside a world setup. *)
let cache = Shift.Session.image_cache ()

let case_for ?backend mode =
  let code_addr label =
    let image = Shift.Session.build ~cache ?backend ~mode program in
    Int64.of_int (Shift_isa.Program.target image.Shift_compiler.Image.program label)
  in
  {
    Attack_case.cve = "EXT-L3";
    program_name = "plugin-host (extension)";
    language = "C";
    attack_type = "Control-flow hijack";
    detection_policies = "L3";
    expected_policy = "L3";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.add_file w "plugins.reg" (registry_for (code_addr "handler_status")));
    exploit =
      (fun w ->
        Shift_os.World.add_file w "plugins.reg"
          (registry_for (code_addr "maintenance_shell")));
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache;
  }
