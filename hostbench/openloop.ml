(* Bookkeeping for an open-loop generator.

   Request [i] is due at [t0 + i * interarrival] whatever happened to
   the requests before it, and its latency runs from that due time, not
   from when it was actually sent: a generator or server stall that
   delays later sends is charged to every request it delayed.  How late
   each send went out is kept apart, so a run can show that the
   generator itself kept its schedule.  The sender and the receiver
   may be different threads; every update takes the lock. *)

type t = {
  t0 : float;
  interarrival : float;
  sent : float array;  (** nan = not sent yet *)
  done_at : float array;  (** nan = no response yet *)
  lock : Mutex.t;
  mutable in_flight : int;
  mutable max_in_flight : int;
}

let create ~t0 ~interarrival n =
  {
    t0;
    interarrival;
    sent = Array.make n Float.nan;
    done_at = Array.make n Float.nan;
    lock = Mutex.create ();
    in_flight = 0;
    max_in_flight = 0;
  }

let length t = Array.length t.sent
let due t i = t.t0 +. (float_of_int i *. t.interarrival)

let mark_sent t i ~at =
  Mutex.protect t.lock (fun () ->
      t.sent.(i) <- at;
      t.in_flight <- t.in_flight + 1;
      if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight)

let mark_done t i ~at =
  Mutex.protect t.lock (fun () ->
      t.done_at.(i) <- at;
      t.in_flight <- t.in_flight - 1)

let collect t f =
  Mutex.protect t.lock (fun () ->
      List.filter_map Fun.id (List.init (length t) (f t)))

(* latency of every answered request, from its due time *)
let latencies t =
  collect t (fun t i ->
      if Float.is_nan t.done_at.(i) then None else Some (t.done_at.(i) -. due t i))

(* how late each send went out against its due time *)
let lateness t =
  collect t (fun t i ->
      if Float.is_nan t.sent.(i) then None else Some (t.sent.(i) -. due t i))

let completed t = List.length (latencies t)
let max_in_flight t = Mutex.protect t.lock (fun () -> t.max_in_flight)

(* from the first due time to the last response *)
let wall t =
  Mutex.protect t.lock (fun () ->
      Array.fold_left
        (fun acc d -> if Float.is_nan d then acc else Float.max acc d)
        t.t0 t.done_at
      -. t.t0)
