type 'a t = {
  tw_times : float array;
  tw_len : int array;  (* entries scheduled into each slot *)
  tw_next : int array;  (* entries already drained from each slot *)
  tw_seqs : int array array;
  tw_pay : 'a array array;
  mutable tw_cursor : int;
  mutable tw_spare : (int array * 'a array) list;
      (* arrays of drained slots, handed to the next slot that opens: only
         a couple of slots are ever open at once, so the wheel's footprint
         is a few slots' worth, not one per tick *)
}

let create ~times =
  Array.iteri
    (fun i t ->
      if not (Float.is_finite t) || t < 0.0 then
        invalid_arg "Timer_wheel.create: times must be finite and non-negative";
      if i > 0 && not (times.(i - 1) < t) then
        invalid_arg "Timer_wheel.create: times must be strictly increasing")
    times;
  let n = Array.length times in
  {
    tw_times = Array.copy times;
    tw_len = Array.make n 0;
    tw_next = Array.make n 0;
    tw_seqs = Array.make n [||];
    tw_pay = Array.make n [||];
    tw_cursor = 0;
    tw_spare = [];
  }

let nticks w = Array.length w.tw_times
let time w tick = w.tw_times.(tick)
let cursor w = w.tw_cursor

let index_of_time w t =
  (* exact binary search: fire times are computed by the same float
     arithmetic that built the schedule, so equality is the contract *)
  let lo = ref 0 and hi = ref (Array.length w.tw_times - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = w.tw_times.(mid) in
    if v = t then found := mid else if v < t then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

let schedule w ~tick ~seq payload =
  if tick < w.tw_cursor || tick >= Array.length w.tw_times then
    invalid_arg "Timer_wheel.schedule: tick out of range";
  let len = w.tw_len.(tick) in
  (if len = 0 && Array.length w.tw_seqs.(tick) = 0 then
     match w.tw_spare with
     | (seqs, pay) :: rest ->
         w.tw_spare <- rest;
         w.tw_seqs.(tick) <- seqs;
         w.tw_pay.(tick) <- pay
     | [] -> ());
  let cap = Array.length w.tw_seqs.(tick) in
  if len = cap then begin
    (* payload arrays need a seed element, so capacity appears with the
       first entry and doubles in place after that *)
    let ncap = max 8 (2 * cap) in
    let seqs = Array.make ncap 0 in
    let pay = Array.make ncap payload in
    Array.blit w.tw_seqs.(tick) 0 seqs 0 len;
    Array.blit w.tw_pay.(tick) 0 pay 0 len;
    w.tw_seqs.(tick) <- seqs;
    w.tw_pay.(tick) <- pay
  end;
  w.tw_seqs.(tick).(len) <- seq;
  w.tw_pay.(tick).(len) <- payload;
  w.tw_len.(tick) <- len + 1

let peek w =
  let c = w.tw_cursor in
  if c >= Array.length w.tw_times then None
  else
    let next = w.tw_next.(c) in
    if next >= w.tw_len.(c) then None
    else Some (w.tw_times.(c), w.tw_seqs.(c).(next))

let take w =
  let c = w.tw_cursor in
  if c >= Array.length w.tw_times then invalid_arg "Timer_wheel.take: past the end";
  let next = w.tw_next.(c) in
  if next >= w.tw_len.(c) then invalid_arg "Timer_wheel.take: slot drained";
  w.tw_next.(c) <- next + 1;
  w.tw_pay.(c).(next)

let release w tick =
  if Array.length w.tw_seqs.(tick) > 0 then begin
    w.tw_spare <- (w.tw_seqs.(tick), w.tw_pay.(tick)) :: w.tw_spare;
    w.tw_seqs.(tick) <- [||];
    w.tw_pay.(tick) <- [||]
  end

let advance w =
  let c = w.tw_cursor in
  if c >= Array.length w.tw_times then invalid_arg "Timer_wheel.advance: past the end";
  if w.tw_next.(c) < w.tw_len.(c) then
    invalid_arg "Timer_wheel.advance: slot not drained";
  release w c;
  w.tw_cursor <- c + 1

let reset w =
  for tick = 0 to Array.length w.tw_times - 1 do
    release w tick
  done;
  Array.fill w.tw_len 0 (Array.length w.tw_len) 0;
  Array.fill w.tw_next 0 (Array.length w.tw_next) 0;
  w.tw_cursor <- 0
