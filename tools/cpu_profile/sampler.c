/*
 * SIGPROF CPU sampler, loaded with LD_PRELOAD by tools/cpu_profile.py.
 *
 * An ITIMER_PROF timer fires every INTERVAL_US of CPU time the process
 * uses (the kernel rounds the interval up to its tick). The handler
 * records the interrupted program counter and the return addresses of a
 * frame-pointer walk (build the program with `-C force-frame-pointers=yes`). Memory is read with process_vm_readv,
 * so a frame pointer that a library function used as a general register
 * ends the walk instead of faulting. When the program counter lies
 * outside the executable (a shared-library leaf such as memcpy, which
 * keeps no frame), the word at the stack pointer is recorded too: it is
 * then the return address into the caller the walk would miss.
 *
 * At exit each process writes prof.<pid>.bin (samples) and prof.<pid>.maps
 * (its memory map) into the working directory: one pair per pid, so a
 * wrapper such as `timeout` that also loads the sampler does not overwrite
 * the profiled program's samples.
 *
 * bin format: "RHIKPROF" magic, then per sample a uint32 frame count
 * followed by that many uint64 addresses, innermost first.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_US 1000
#define MAX_DEPTH 64
#define MAX_SAMPLES 60000
#define MAX_STACK_BYTES (16u << 20)

struct sample {
    uint32_t depth;
    uint64_t frames[MAX_DEPTH];
};

static struct sample samples[MAX_SAMPLES];
static atomic_uint next_sample;
static atomic_uint dropped;
static uintptr_t exe_lo, exe_hi;
static pid_t self;

/* Read `len` bytes at `addr` of this process; 0 on success. */
static int peek(uintptr_t addr, void *out, size_t len) {
    struct iovec local = {out, len};
    struct iovec remote = {(void *)addr, len};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)len ? 0 : -1;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned slot = atomic_fetch_add_explicit(&next_sample, 1, memory_order_relaxed);
    if (slot >= MAX_SAMPLES) {
        atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
        return;
    }
    ucontext_t *uc = ctx;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    struct sample *s = &samples[slot];
    uint32_t n = 0;
    s->frames[n++] = pc;
    if (pc < exe_lo || pc >= exe_hi) {
        uint64_t ret;
        if (peek(sp, &ret, sizeof ret) == 0 && ret >= exe_lo && ret < exe_hi)
            s->frames[n++] = ret;
    }
    uintptr_t prev = sp;
    while (n < MAX_DEPTH && fp >= prev && fp - sp < MAX_STACK_BYTES && (fp & 7) == 0) {
        uint64_t frame[2]; /* saved frame pointer, return address */
        if (peek(fp, frame, sizeof frame) != 0 || frame[1] == 0)
            break;
        s->frames[n++] = frame[1];
        prev = fp + 16;
        fp = frame[0];
    }
    s->depth = n;
}

/* The executable's text mapping, from /proc/self/maps. */
static void find_exe_text(void) {
    char exe[512];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (len <= 0 || !maps)
        return;
    exe[len] = 0;
    char line[1024];
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8];
        if (sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3 && perms[2] == 'x' &&
            strstr(line, exe)) {
            exe_lo = lo;
            exe_hi = hi;
        }
    }
    fclose(maps);
}

__attribute__((constructor)) static void start(void) {
    self = getpid();
    find_exe_text();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

static void copy_file(const char *from, const char *to) {
    int in = open(from, O_RDONLY), out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char buf[65536];
    ssize_t got;
    while (in >= 0 && out >= 0 && (got = read(in, buf, sizeof buf)) > 0)
        if (write(out, buf, (size_t)got) != got)
            break;
    if (in >= 0)
        close(in);
    if (out >= 0)
        close(out);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    if (getpid() != self)
        return; /* a forked child: its samples are its parent's */
    char path[64];
    snprintf(path, sizeof path, "prof.%d.maps", (int)self);
    copy_file("/proc/self/maps", path);
    snprintf(path, sizeof path, "prof.%d.bin", (int)self);
    FILE *out = fopen(path, "wb");
    if (!out)
        return;
    fwrite("RHIKPROF", 1, 8, out);
    unsigned taken = atomic_load(&next_sample);
    if (taken > MAX_SAMPLES)
        taken = MAX_SAMPLES;
    for (unsigned i = 0; i < taken; i++) {
        fwrite(&samples[i].depth, sizeof samples[i].depth, 1, out);
        fwrite(samples[i].frames, sizeof(uint64_t), samples[i].depth, out);
    }
    fclose(out);
    if (atomic_load(&dropped))
        fprintf(stderr, "sampler: %u samples dropped (buffer full)\n", atomic_load(&dropped));
}
