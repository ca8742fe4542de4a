open Build
open Build.Infix

let document_root = "www"

(* the request-handling core, shared by the single-process server and
   the worker-process personality below *)
let server_funcs =
  [
    (* copy the request path ("GET /name ...") into out; returns
       its length or -1 on a malformed request *)
    func "parse_path" ~params:[ "req"; "out" ] ~locals:[ scalar "k"; scalar "ch" ]
          [
            when_ (call "strncmp" [ v "req"; str "GET /"; i 5 ] <>: i 0) [ ret (i 0 -: i 1) ];
            set "k" (i 0);
            while_ (v "k" <: i 120)
              [
                set "ch" (load8 (v "req" +: i 5 +: v "k"));
                when_ ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code ' '))) [ Ir.Break ];
                store8 (v "out" +: v "k") (v "ch");
                set "k" (v "k" +: i 1);
              ];
            store8 (v "out" +: v "k") (i 0);
            ret (v "k");
          ];
        func "serve_one" ~params:[ "sock" ]
          ~locals:
            [ array "req" 512; array "name" 128; array "path" 192; array "hdr" 128;
              scalar "n"; scalar "fd"; scalar "hlen" ]
          [
            set "n" (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            when_ (v "n" <=: i 0) [ ret (i 0) ];
            when_ (call "parse_path" [ v "req"; v "name" ] <: i 0) [ ret (i 0) ];
            Ir.Expr (call "strcpy" [ v "path"; str "www/" ]);
            Ir.Expr (call "strcat" [ v "path"; v "name" ]);
            set "fd" (call "sys_open" [ v "path" ]);
            when_ (v "fd" <: i 0)
              [
                Ir.Expr
                  (call "sys_send"
                     [ v "sock"; str "HTTP/1.0 404 Not Found\r\n\r\n"; i 26 ]);
                ret (i 404);
              ];
            set "hlen"
              (call "sprintf1"
                 [ v "hdr"; str "HTTP/1.0 200 OK\r\nServer: shift-httpd/%d\r\n\r\n"; i 1 ]);
            Ir.Expr (call "sys_send" [ v "sock"; v "hdr"; v "hlen" ]);
            Ir.Expr (call "sys_sendfile" [ v "sock"; v "fd"; i 1073741824 ]);
            Ir.Expr (call "sys_close" [ v "fd" ]);
            ret (i 200);
          ];
  ]

(* the accept loop: drain the shared pending-request queue until
   sys_accept reports it empty, then return the served count *)
let accept_loop =
  [
    set "served" (i 0);
    while_ (i 1)
      [
        set "sock" (call "sys_accept" []);
        when_ (v "sock" <: i 0) [ Ir.Break ];
        when_ (call "serve_one" [ v "sock" ] ==: i 200)
          [ set "served" (v "served" +: i 1) ];
        Ir.Expr (call "sys_close" [ v "sock" ]);
      ];
    ret (v "served");
  ]

let program =
  {
    Ir.globals = [];
    funcs =
      server_funcs
      @ [
          func "main" ~params:[] ~locals:[ scalar "sock"; scalar "served" ]
            accept_loop;
        ];
  }

(* ---------- the worker-process personality ---------- *)

(* The master forks [workers] children, each running the same accept
   loop; the pending-request queue lives in the shared World, so the
   forked workers drain it together the way processes inheriting a
   listening socket share the backlog.  A worker exits with its served
   count once accept reports the queue empty; the master reaps every
   worker and exits with the fleet's total. *)
let max_workers = 8

let worker_program ~workers =
  let w = max 1 (min workers max_workers) in
  {
    Ir.globals = [];
    funcs =
      server_funcs
      @ [
          func "worker" ~params:[] ~locals:[ scalar "sock"; scalar "served" ]
            accept_loop;
          func "main" ~params:[]
            ~locals:
              [ array "pids" (8 * w); scalar "off"; scalar "pid";
                scalar "total"; scalar "st" ]
            [
              set "off" (i 0);
              while_ (v "off" <: i (8 * w))
                [
                  set "pid" (call "sys_fork" []);
                  when_ (v "pid" ==: i 0) [ ret (call "worker" []) ];
                  store64 (v "pids" +: v "off") (v "pid");
                  set "off" (v "off" +: i 8);
                ];
              set "total" (i 0);
              set "off" (i 0);
              while_ (v "off" <: i (8 * w))
                [
                  set "st" (call "sys_wait" [ load64 (v "pids" +: v "off") ]);
                  when_ (v "st" >: i 0) [ set "total" (v "total" +: v "st") ];
                  set "off" (v "off" +: i 8);
                ];
              ret (v "total");
            ];
        ];
  }

let policy =
  { Shift_policy.Policy.default with Shift_policy.Policy.h2 = Some document_root }

(* a network server's syscalls are dominated by kernel crossings and
   wire time, not by the handful of user-space instructions around
   them *)
let io_cost =
  { Shift_os.World.per_call = 6000; per_byte = 2; sendfile_per_byte = 2 }

let rtt_cycles = 40_000

let file_name ~file_size = Printf.sprintf "file_%dk" (file_size / 1024)

let setup ~file_size ~requests world =
  let body = Inputs.bytes ~seed:80 file_size in
  Shift_os.World.add_file world ~tainted:false
    (document_root ^ "/" ^ file_name ~file_size)
    body;
  for _ = 1 to requests do
    Shift_os.World.queue_request world
      (Printf.sprintf "GET /%s HTTP/1.0\r\nHost: bench\r\n\r\n" (file_name ~file_size))
  done

(* ---------- the host-side request driver ---------- *)

let default_slice = 100_000

let serve ?policy:(pol = policy) ?io_cost:(io = io_cost) ?(fuel = 2_000_000_000)
    ?(slice = default_slice) ?(on_slice = fun _ -> ())
    ?(backend = Shift.Backend.default) ?workers ~mode ~file_size ~requests () =
  let mode = Shift.Session.effective_mode ~backend mode in
  let prog, threading =
    match workers with
    | None -> (program, Shift.Session.Config.Single)
    | Some w ->
        ( worker_program ~workers:w,
          Shift.Session.Config.Processes { quantum = None; comm = Some "httpd" }
        )
  in
  let config =
    Shift.Session.Config.make ~policy:pol ~io_cost:io ~fuel
      ~setup:(setup ~file_size ~requests) ~threading ~backend ()
  in
  let live = Shift.Session.start ~config (Shift.Session.build ~backend ~mode prog) in
  let rec drive () =
    match Shift.Session.advance live ~budget:slice with
    | `Yielded ->
        on_slice live;
        drive ()
    | `Finished _ -> ()
  in
  drive ();
  Shift.Session.report live
