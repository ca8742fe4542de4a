(* The resident taint-tracking service: scheduler (engine slices over a
   persistent domain pool, Snapshot-based migration, crash containment)
   and the JSONL/Unix-socket control plane.  See serve.mli for the
   layering and PROTOCOL.md for the wire format. *)

module J = Results

type work =
  | Job of Fleet.job
  | Jobs of { jobs : Fleet.job list; retries : int }
  | Probe of { start : int -> Session.live; clause : Leak.clause; variants : int }

type catalog = Protocol.request -> (work, string) result

(* ---------- the scheduler ---------- *)

module Scheduler = struct
  type done_job = {
    job : string;
    outcome : Fleet.outcome;
    migrations : int;
    attempts : int;
  }

  type ticket = {
    t_id : string;
    t_seq : int;
    t_job : Fleet.job;
    t_migrate_every : int option;
    t_retries : int;
    mutable t_attempts : int;  (* failed attempts so far *)
    mutable t_snap : Snapshot.t option;  (* freshest parked checkpoint *)
    mutable t_migrations : int;
  }

  type t = {
    pool : Pool.Workers.t;
    slice : int;
    on_slice : (float -> unit) option;
    on_done : (done_job -> unit) option;
    checkpoint_dir : string option;
    lock : Mutex.t;
    idle : Condition.t;  (* signalled whenever a job completes *)
    finished : done_job Queue.t;
    mutable admitted : int;
    mutable in_flight : int;
    mutable running : int;
    mutable completed : int;
    mutable crashed : int;
    mutable migrations : int;
  }

  let create ?(workers = 0) ?(slice = 50_000) ?on_slice ?on_done
      ?checkpoint_dir () =
    (match checkpoint_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    {
      pool = Pool.Workers.create ~domains:workers ();
      slice = (if slice > 0 then slice else 50_000);
      on_slice;
      on_done;
      checkpoint_dir;
      lock = Mutex.create ();
      idle = Condition.create ();
      finished = Queue.create ();
      admitted = 0;
      in_flight = 0;
      running = 0;
      completed = 0;
      crashed = 0;
      migrations = 0;
    }

  let workers t = Pool.Workers.size t.pool

  let spill_file t ticket =
    Option.map
      (fun dir ->
        Filename.concat dir (Printf.sprintf "job-%06d.snap.json" ticket.t_seq))
      t.checkpoint_dir

  let finish t ticket outcome =
    (match spill_file t ticket with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    let dj =
      {
        job = ticket.t_id;
        outcome;
        migrations = ticket.t_migrations;
        attempts = ticket.t_attempts + 1;
      }
    in
    Mutex.protect t.lock (fun () ->
        t.in_flight <- t.in_flight - 1;
        (match outcome with
        | Fleet.Crashed _ -> t.crashed <- t.crashed + 1
        | Fleet.Finished _ -> t.completed <- t.completed + 1);
        Queue.add dj t.finished;
        Condition.broadcast t.idle);
    Option.iter (fun f -> f dj) t.on_done

  (* One stretch of one job on whichever worker picked it up.  A parked
     or retried ticket goes to the back of the pool's queue, so its next
     stretch may well run on a different domain — that handoff, with the
     state carried in the Snapshot, is the live migration. *)
  let rec stretch t ticket () =
    Mutex.protect t.lock (fun () -> t.running <- t.running + 1);
    let result =
      Fleet.step ~slice:t.slice ?park_after:ticket.t_migrate_every
        ?on_checkpoint:
          (Option.map
             (fun _ snap -> Snapshot.save (Option.get (spill_file t ticket)) snap)
             t.checkpoint_dir)
        ?resume:ticket.t_snap ?on_slice:t.on_slice ticket.t_job
    in
    Mutex.protect t.lock (fun () -> t.running <- t.running - 1);
    match result with
    | Fleet.Done report -> finish t ticket (Fleet.Finished report)
    | Fleet.Parked snap ->
        ticket.t_snap <- Some snap;
        ticket.t_migrations <- ticket.t_migrations + 1;
        Mutex.protect t.lock (fun () -> t.migrations <- t.migrations + 1);
        requeue t ticket
    | Fleet.Failed { exn; backtrace } ->
        ticket.t_attempts <- ticket.t_attempts + 1;
        if ticket.t_attempts <= ticket.t_retries then requeue t ticket
        else
          finish t ticket
            (Fleet.Crashed { exn; backtrace; attempts = ticket.t_attempts })

  and requeue t ticket =
    match Pool.Workers.submit t.pool (stretch t ticket) with
    | () -> ()
    | exception Invalid_argument _ ->
        (* the pool was shut down under a live job (shutdown without
           drain); complete it as crashed rather than losing it *)
        finish t ticket
          (Fleet.Crashed
             {
               exn = "scheduler shut down with the job in flight";
               backtrace = "";
               attempts = ticket.t_attempts + 1;
             })

  let submit t ?deadline ?migrate_every ?(retries = 0) ~id job =
    let job =
      match deadline with Some d -> Fleet.with_deadline d job | None -> job
    in
    let seq =
      Mutex.protect t.lock (fun () ->
          t.admitted <- t.admitted + 1;
          t.in_flight <- t.in_flight + 1;
          t.admitted)
    in
    let ticket =
      {
        t_id = id;
        t_seq = seq;
        t_job = job;
        t_migrate_every = migrate_every;
        t_retries = retries;
        t_attempts = 0;
        t_snap = None;
        t_migrations = 0;
      }
    in
    requeue t ticket

  let in_flight t = Mutex.protect t.lock (fun () -> t.in_flight)

  let stats t =
    Mutex.protect t.lock (fun () ->
        [
          ("workers", Pool.Workers.size t.pool);
          ("admitted", t.admitted);
          ("in_flight", t.in_flight);
          ("running", t.running);
          ("completed", t.completed);
          ("crashed", t.crashed);
          ("migrations", t.migrations);
        ])

  let take_finished t =
    Mutex.protect t.lock (fun () ->
        let out = List.of_seq (Queue.to_seq t.finished) in
        Queue.clear t.finished;
        out)

  let drain t =
    Mutex.lock t.lock;
    while t.in_flight > 0 do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock

  let shutdown t = Pool.Workers.shutdown t.pool
end

(* ---------- the socket server ---------- *)

module Server = struct
  type config = {
    socket_path : string;
    workers : int;
    slice : int;
    max_request_bytes : int;
    checkpoint_dir : string option;
    migrate_every : int option;
  }

  let default_config =
    {
      socket_path = "shiftc.sock";
      workers = 0;
      slice = 50_000;
      max_request_bytes = Protocol.default_max_request_bytes;
      checkpoint_dir = None;
      migrate_every = None;
    }

  type conn = {
    fd : Unix.file_descr;
    buf : Buffer.t;
    mutable greeted : bool;
    mutable alive : bool;
  }

  (* where a completed job's response goes *)
  type sink =
    | Single of { s_conn : conn; s_id : string; s_tenant : string option }
    | Member of { m_group : group; m_index : int; m_name : string }

  and group = {
    g_conn : conn;
    g_id : string;
    g_tenant : string option;
    g_total : int;
    mutable g_got : (int * Fleet.result) list;
  }

  let rec write_all fd s off len =
    if len > 0 then begin
      let n = Unix.write_substring fd s off len in
      write_all fd s (off + n) (len - n)
    end

  let run ?(on_ready = fun _ -> ()) ~catalog config =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
    let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind srv (Unix.ADDR_UNIX config.socket_path);
    Unix.listen srv 64;
    let wake_r, wake_w = Unix.pipe () in
    let sched =
      Scheduler.create ~workers:config.workers ~slice:config.slice
        ?checkpoint_dir:config.checkpoint_dir
        ~on_done:(fun _ ->
          (* wake the select loop; worker-domain side of the self-pipe *)
          try ignore (Unix.write wake_w (Bytes.make 1 'x') 0 1)
          with Unix.Unix_error _ -> ())
        ()
    in
    let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
    let pending : (string, sink) Hashtbl.t = Hashtbl.create 64 in
    let seq = ref 0 in
    let draining = ref false in
    let drain_waiters : (conn * string option * string option) list ref =
      ref []
    in
    let close_conn conn =
      if conn.alive then begin
        conn.alive <- false;
        Hashtbl.remove conns conn.fd;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end
    in
    let send conn json =
      if conn.alive then begin
        let line = Protocol.to_line json ^ "\n" in
        try write_all conn.fd line 0 (String.length line)
        with Unix.Unix_error _ -> close_conn conn
      end
    in
    let send_error conn ?id code message =
      send conn
        (Protocol.error_response
           { Protocol.code; message; error_id = id })
    in
    let reply_ok conn ?id ?tenant result =
      send conn (Protocol.ok_response ?tenant ?id result)
    in
    let status_json () =
      J.Obj
        ([
           ("proto_version", J.Int Protocol.version);
           ("draining", J.Bool !draining);
           ("connections", J.Int (Hashtbl.length conns));
         ]
        @ List.map (fun (k, v) -> (k, J.Int v)) (Scheduler.stats sched))
    in
    let submit_single conn env job =
      let key = (incr seq; Printf.sprintf "#%d" !seq) in
      Hashtbl.replace pending key
        (Single
           {
             s_conn = conn;
             s_id = Option.get env.Protocol.id;
             s_tenant = env.Protocol.tenant;
           });
      Scheduler.submit sched ?deadline:env.Protocol.deadline
        ?migrate_every:
          (match env.Protocol.migrate_every with
          | Some m -> Some m
          | None -> config.migrate_every)
        ~id:key job
    in
    let submit_batch conn env retries jobs =
      let group =
        {
          g_conn = conn;
          g_id = Option.get env.Protocol.id;
          g_tenant = env.Protocol.tenant;
          g_total = List.length jobs;
          g_got = [];
        }
      in
      if group.g_total = 0 then
        reply_ok conn ~id:group.g_id ?tenant:group.g_tenant
          (Fleet.to_json (Fleet.aggregate []))
      else
        List.iteri
          (fun i job ->
            let key = (incr seq; Printf.sprintf "#%d" !seq) in
            Hashtbl.replace pending key
              (Member { m_group = group; m_index = i; m_name = Fleet.name job });
            Scheduler.submit sched ?deadline:env.Protocol.deadline
              ?migrate_every:
                (match env.Protocol.migrate_every with
                | Some m -> Some m
                | None -> config.migrate_every)
              ~retries ~id:key job)
          jobs
    in
    let dispatch conn (env : Protocol.envelope) =
      match env.request with
      | Protocol.Status -> reply_ok conn ?id:env.id ?tenant:env.tenant (status_json ())
      | Protocol.Drain ->
          draining := true;
          drain_waiters := (conn, env.id, env.tenant) :: !drain_waiters
      | _ when !draining ->
          send_error conn ?id:env.id Protocol.Draining
            "the server is draining and admits no new jobs"
      | _ when env.id = None ->
          send_error conn Protocol.Bad_request
            "job requests require an \"id\" to correlate the response"
      | request -> (
          match catalog request with
          | Error message -> send_error conn ?id:env.id Protocol.Unknown_name message
          | Ok (Job job) -> submit_single conn env job
          | Ok (Jobs { jobs; retries }) -> submit_batch conn env retries jobs
          | Ok (Probe { start; clause; variants }) -> (
              (* a leak probe is a handful of ordinary sessions run to
                 completion, so it is answered synchronously rather than
                 going through the scheduler *)
              match Leak.detect ~clause ~count:variants ~start () with
              | verdict ->
                  reply_ok conn ?id:env.id ?tenant:env.tenant
                    (Leak.verdict_to_json verdict)
              | exception e ->
                  send_error conn ?id:env.id Protocol.Job_crashed
                    (Printexc.to_string e)))
    in
    let process_line conn line =
      if String.length line > 0 then
        if not conn.greeted then begin
          match Result.bind (J.of_string line) Protocol.hello_of_json with
          | exception _ ->
              send_error conn Protocol.Bad_json "hello did not parse";
              close_conn conn
          | Error e ->
              send_error conn Protocol.Bad_request e;
              close_conn conn
          | Ok v when v = Protocol.version ->
              conn.greeted <- true;
              send conn
                (Protocol.hello_ack ~max_request_bytes:config.max_request_bytes)
          | Ok v ->
              send_error conn Protocol.Unsupported_version
                (Printf.sprintf "this server speaks proto_version %d, not %d"
                   Protocol.version v);
              close_conn conn
        end
        else
          match Protocol.of_line ~max_bytes:config.max_request_bytes line with
          | Error e ->
              send conn (Protocol.error_response e);
              if e.Protocol.code = Protocol.Oversized then close_conn conn
          | Ok env -> dispatch conn env
    in
    let feed conn =
      let chunk = Bytes.create 65536 in
      match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | 0 -> close_conn conn
      | exception Unix.Unix_error _ -> close_conn conn
      | n ->
          Buffer.add_subbytes conn.buf chunk 0 n;
          let rec lines () =
            if conn.alive then begin
              let s = Buffer.contents conn.buf in
              match String.index_opt s '\n' with
              | None ->
                  (* a line longer than the cap can never complete:
                     refuse it now rather than buffering without bound *)
                  if String.length s > config.max_request_bytes then begin
                    send_error conn Protocol.Oversized
                      (Printf.sprintf
                         "request line exceeds the %d-byte cap"
                         config.max_request_bytes);
                    close_conn conn
                  end
              | Some i ->
                  Buffer.clear conn.buf;
                  Buffer.add_substring conn.buf s (i + 1)
                    (String.length s - i - 1);
                  process_line conn (String.sub s 0 i);
                  lines ()
            end
          in
          lines ()
    in
    let route (dj : Scheduler.done_job) =
      match Hashtbl.find_opt pending dj.Scheduler.job with
      | None -> ()
      | Some sink -> (
          Hashtbl.remove pending dj.Scheduler.job;
          match sink with
          | Single { s_conn; s_id; s_tenant } -> (
              match dj.Scheduler.outcome with
              | Fleet.Finished report ->
                  reply_ok s_conn ~id:s_id ?tenant:s_tenant
                    (J.Obj
                       [
                         ("migrations", J.Int dj.Scheduler.migrations);
                         ("attempts", J.Int dj.Scheduler.attempts);
                         ("report", Results.of_report report);
                       ])
              | Fleet.Crashed c ->
                  send_error s_conn ~id:s_id Protocol.Job_crashed
                    (Printf.sprintf "%s (after %d attempts)" c.Fleet.exn
                       c.Fleet.attempts))
          | Member { m_group = g; m_index; m_name } ->
              g.g_got <-
                (m_index, { Fleet.name = m_name; outcome = dj.Scheduler.outcome })
                :: g.g_got;
              if List.length g.g_got = g.g_total then begin
                let results =
                  List.sort (fun (a, _) (b, _) -> compare a b) g.g_got
                  |> List.map snd
                in
                reply_ok g.g_conn ~id:g.g_id ?tenant:g.g_tenant
                  (Fleet.to_json (Fleet.aggregate results))
              end)
    in
    let collect () = List.iter route (Scheduler.take_finished sched) in
    on_ready config;
    let stop = ref false in
    while not !stop do
      collect ();
      if !draining && Scheduler.in_flight sched = 0 && Hashtbl.length pending = 0
      then begin
        let completed, crashed =
          let s = Scheduler.stats sched in
          (List.assoc "completed" s, List.assoc "crashed" s)
        in
        List.iter
          (fun (conn, id, tenant) ->
            reply_ok conn ?id ?tenant
              (J.Obj
                 [
                   ("drained", J.Bool true);
                   ("completed", J.Int completed);
                   ("crashed", J.Int crashed);
                 ]))
          (List.rev !drain_waiters);
        stop := true
      end
      else begin
        let fds =
          srv :: wake_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
        in
        match Unix.select fds [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter
              (fun fd ->
                if fd = srv then begin
                  let cfd, _ = Unix.accept srv in
                  Hashtbl.replace conns cfd
                    { fd = cfd; buf = Buffer.create 256; greeted = false; alive = true }
                end
                else if fd = wake_r then
                  ignore (Unix.read wake_r (Bytes.create 64) 0 64)
                else
                  match Hashtbl.find_opt conns fd with
                  | Some conn -> feed conn
                  | None -> ())
              readable
      end
    done;
    Scheduler.drain sched;
    Scheduler.shutdown sched;
    Hashtbl.iter (fun _ conn -> close_conn conn) (Hashtbl.copy conns);
    (try Unix.close srv with Unix.Unix_error _ -> ());
    (try Unix.close wake_r with Unix.Unix_error _ -> ());
    (try Unix.close wake_w with Unix.Unix_error _ -> ());
    try Sys.remove config.socket_path with Sys_error _ -> ()
end

(* ---------- a blocking client ---------- *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    rbuf : Buffer.t;
    mutable queued : (string option * J.json) list;
        (* responses read while waiting for a different id *)
  }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send_line t line =
    let line = line ^ "\n" in
    match Server.write_all t.fd line 0 (String.length line) with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "write: %s" (Unix.error_message e))

  let read_line t =
    let rec go () =
      let s = Buffer.contents t.rbuf in
      match String.index_opt s '\n' with
      | Some i ->
          Buffer.clear t.rbuf;
          Buffer.add_substring t.rbuf s (i + 1) (String.length s - i - 1);
          Some (String.sub s 0 i)
      | None -> (
          let chunk = Bytes.create 65536 in
          match Unix.read t.fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
              Buffer.add_subbytes t.rbuf chunk 0 n;
              go ()
          | exception Unix.Unix_error _ -> None)
    in
    go ()

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
    | () -> (
        let t = { fd; rbuf = Buffer.create 256; queued = [] } in
        match send_line t (Protocol.to_line Protocol.hello) with
        | Error e ->
            close t;
            Error e
        | Ok () -> (
            match read_line t with
            | None ->
                close t;
                Error "server closed the connection during the hello handshake"
            | Some line -> (
                match J.of_string line with
                | Error e ->
                    close t;
                    Error ("hello ack did not parse: " ^ e)
                | Ok ack ->
                    if Protocol.response_ok ack then Ok t
                    else begin
                      close t;
                      Error ("hello rejected: " ^ line)
                    end)))

  let request t (env : Protocol.envelope) =
    match send_line t (Protocol.to_line (Protocol.request_to_json env)) with
    | Error e -> Error e
    | Ok () -> (
        let matches id = match env.Protocol.id with None -> true | want -> id = want in
        match
          List.find_opt (fun (id, _) -> matches id) t.queued
        with
        | Some ((_, json) as hit) ->
            t.queued <- List.filter (fun q -> q != hit) t.queued;
            Ok json
        | None ->
            let rec wait () =
              match read_line t with
              | None -> Error "server closed the connection before the response"
              | Some line -> (
                  match J.of_string line with
                  | Error e -> Error ("response did not parse: " ^ e)
                  | Ok json ->
                      let id = Protocol.response_id json in
                      if matches id then Ok json
                      else begin
                        t.queued <- t.queued @ [ (id, json) ];
                        wait ()
                      end)
            in
            wait ())
end
