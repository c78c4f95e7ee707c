/*
 * hostprof: a wall-clock sampling profiler loaded with LD_PRELOAD.
 *
 * A CLOCK_MONOTONIC POSIX timer sends SIGPROF to the main thread of this
 * process kHz times a second. Each signal walks the frame pointers from
 * the interrupted context and stores the PCs in a fixed buffer (no
 * allocation in the handler). At exit every PC is written as
 * module-relative offsets to HOSTPROF_OUT (default hostprof.out), one
 * sample per line; report.py symbolizes them. Other threads are never
 * sampled, so profile single-threaded runs such as perfbench. Frames are
 * only complete in code built with -fno-omit-frame-pointer. x86-64 and
 * AArch64.
 *
 *   cc -O2 -shared -fPIC -o hostprof.so tools/hostprof/hostprof.c -lrt
 *   LD_PRELOAD=./hostprof.so ./program ...
 */
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

/* Older glibc headers name the target-thread field only as the kernel
 * does. */
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

enum { kHz = 4000, kMaxDepth = 48, kMaxSamples = 1 << 17 };

static uintptr_t g_pcs[kMaxSamples][kMaxDepth];
static unsigned char g_depth[kMaxSamples];
static volatile sig_atomic_t g_count;
static uintptr_t g_stackLo, g_stackHi;
static timer_t g_timer;

static void
onSample(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    const int n = g_count;
    if (n >= kMaxSamples)
        return;
    const ucontext_t *uc = uctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
#else
    uintptr_t pc = 0, fp = 0;
#endif
    int d = 0;
    g_pcs[n][d++] = pc;
    /* Each frame record is {caller fp, return address}; follow it only
     * while it stays on the main thread's stack and moves up it. */
    while (d < kMaxDepth && fp >= g_stackLo && fp + 16 <= g_stackHi &&
           fp % sizeof(uintptr_t) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        g_pcs[n][d++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    g_depth[n] = (unsigned char)d;
    g_count = n + 1;
}

struct Lookup
{
    uintptr_t pc;
    const char *module;
    uintptr_t offset;
};

static int
findModule(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    struct Lookup *l = data;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (ph->p_type == PT_LOAD && l->pc >= lo && l->pc < lo + ph->p_memsz) {
            l->module = info->dlpi_name;
            l->offset = l->pc - info->dlpi_addr;
            return 1;
        }
    }
    return 0;
}

__attribute__((constructor)) static void
start(void)
{
    pthread_attr_t attr;
    void *base;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
    g_stackLo = (uintptr_t)base;
    g_stackHi = g_stackLo + size;

    struct sigaction sa = {0};
    sa.sa_sigaction = onSample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    /* To the main thread only: the stack bounds above are its own, and
     * the handler never runs on two threads at once. */
    struct sigevent sev = {0};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = gettid();
    if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0)
        return;
    struct itimerspec its = {0};
    its.it_interval.tv_nsec = 1000000000L / kHz;
    its.it_value = its.it_interval;
    timer_settime(g_timer, 0, &its, NULL);
}

__attribute__((destructor)) static void
finish(void)
{
    timer_delete(g_timer);
    signal(SIGPROF, SIG_IGN);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    if (!out)
        return;
    /* One line per sample: "module+offset" per frame, leaf first. The
     * main executable reports an empty dlpi_name. */
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    for (int s = 0; s < g_count; ++s) {
        for (int d = 0; d < g_depth[s]; ++d) {
            struct Lookup l = {g_pcs[s][d], NULL, 0};
            if (!dl_iterate_phdr(findModule, &l))
                continue;
            fprintf(out, "%s%s+%#lx", d ? " " : "",
                    l.module[0] ? l.module : exe,
                    (unsigned long)l.offset);
        }
        fputc('\n', out);
    }
    fclose(out);
}
