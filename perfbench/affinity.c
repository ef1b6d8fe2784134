/* Pin the calling thread to one CPU of its allowed set, so that the two
   busy domains of the socket workload never share a core. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* perfbench_pin_self k: pin to the k-th allowed CPU; returns that CPU, or
   -1 when the set has no k-th CPU or the kernel refuses. */
value perfbench_pin_self(value vk)
{
#ifdef __linux__
  cpu_set_t allowed, one;
  int k = Int_val(vk);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (k-- > 0) continue;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return Val_int(sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1);
  }
#else
  (void)vk;
#endif
  return Val_int(-1);
}
