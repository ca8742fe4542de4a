(* Policy lab: the same guest binary under different security policies.

   SHIFT decouples the tracking mechanism from policy (paper §3): the
   hardware propagates tags either way; what counts as a violation is a
   software decision.  This example serves one malicious HTTP request
   to the web server under four policy configurations.

   Run with: dune exec examples/policy_lab.exe *)

module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module World = Shift_os.World
module Httpd = Shift_workloads.Httpd

let evil_request = "GET /../../root/secrets.txt HTTP/1.0\r\n\r\n"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let image = lazy (Shift.Session.build ~mode:Mode.shift_word Httpd.program)

let serve policy =
  Shift.Session.exec
    ~config:
      (Shift.Session.Config.make ~policy ~io_cost:Httpd.io_cost
         ~setup:(fun w ->
           World.add_file w ~tainted:false "root/secrets.txt" "THE-SECRET";
           World.queue_request w evil_request)
         ())
    (Lazy.force image)

let show title (r : Shift.Report.t) =
  Format.printf "  %-34s -> %a" title Shift.Report.pp_outcome r.Shift.Report.outcome;
  List.iter
    (fun a -> Format.printf " [logged: %s]" (Shift_policy.Alert.to_string a))
    r.Shift.Report.logged;
  if contains r.Shift.Report.output "THE-SECRET" then
    Format.printf "  !! secret leaked";
  Format.printf "@."

let () =
  print_endline "One traversal request, four policies (same compiled image):";
  print_newline ();
  show "H2 over the document root" (serve Httpd.policy);
  show "H2, but log-and-continue" (serve { Httpd.policy with Policy.action = Policy.Log_only });
  show "low-level policies only" (serve Policy.default);
  show "tracking without any policy"
    (serve { Policy.default with Policy.low_level = false });
  print_newline ();
  print_endline "The mechanism never changed - only the configuration file did";
  print_endline "(paper section 3: policies are decoupled from tracking).";
  print_newline ();
  print_endline "Enabled policies in the strict configuration:";
  List.iter (fun l -> print_endline ("  - " ^ l)) (Policy.describe Httpd.policy)
